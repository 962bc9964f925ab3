//go:build purego

package aes128

import "testing"

// TestPuregoSelectsTTable: -tags purego must take the portable tier
// even on a host with AES-NI, or the fallback goes untested in CI.
func TestPuregoSelectsTTable(t *testing.T) {
	if Backend() != "ttable" {
		t.Fatalf("Backend() = %q under -tags purego", Backend())
	}
}
