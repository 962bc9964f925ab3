package circuit

import (
	"bytes"
	"testing"
)

// FuzzReadBristol: ReadBristol parses netlists from outside the
// program, so no input may panic it or exhaust memory, and every
// circuit it accepts must be well formed, its outputs the last wires.
func FuzzReadBristol(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadBristol(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted an invalid circuit: %v", err)
		}
		for i, o := range c.Outputs {
			if want := Wire(c.NumWires - len(c.Outputs) + i); o != want {
				t.Fatalf("output %d is wire %d, want %d", i, o, want)
			}
		}
	})
}
