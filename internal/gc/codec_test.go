package gc

import (
	"bytes"
	"testing"

	"haac/internal/label"
)

func TestMaterialCodecRoundTrip(t *testing.T) {
	src := label.NewSource(11)
	for _, n := range []int{0, 1, 5, 100} {
		ms := make([]Material, n)
		for i := range ms {
			ms[i] = Material{TG: src.Next(), TE: src.Next()}
		}
		buf := make([]byte, MaterialSize*n)
		if got := EncodeMaterials(buf, ms); got != MaterialSize*n {
			t.Fatalf("n=%d: wrote %d bytes, want %d", n, got, MaterialSize*n)
		}
		// Bulk encode must match the per-table Bytes serialization.
		for i, m := range ms {
			one := m.Bytes()
			if string(buf[i*MaterialSize:(i+1)*MaterialSize]) != string(one[:]) {
				t.Fatalf("n=%d: EncodeMaterials differs from Bytes at table %d", n, i)
			}
		}
		back := make([]Material, n)
		if got := DecodeMaterials(back, buf); got != MaterialSize*n {
			t.Fatalf("n=%d: read %d bytes, want %d", n, got, MaterialSize*n)
		}
		for i := range ms {
			if back[i] != ms[i] {
				t.Fatalf("n=%d: round-trip mismatch at table %d", n, i)
			}
		}
	}
}

// TestMaterialBytesMatchesCodec: the transport's zero-copy view of a
// table arena is the codec's wire format in both directions — what a
// sender writes from MaterialBytes is EncodeMaterials' output, and wire
// bytes read into MaterialBytes are the tables DecodeMaterials yields.
func TestMaterialBytesMatchesCodec(t *testing.T) {
	src := label.NewSource(12)
	for _, n := range []int{0, 1, 7, 513} {
		ms := make([]Material, n)
		for i := range ms {
			ms[i] = Material{TG: src.Next(), TE: src.Next()}
		}
		wire := make([]byte, MaterialSize*n)
		EncodeMaterials(wire, ms)

		out := append([]Material(nil), ms...) // ToWire spends its argument
		MaterialsToWire(out)
		if !bytes.Equal(MaterialBytes(out), wire) {
			t.Fatalf("n=%d: MaterialBytes after MaterialsToWire differs from EncodeMaterials", n)
		}

		in := make([]Material, n)
		if copy(MaterialBytes(in), wire) != len(wire) {
			t.Fatalf("n=%d: MaterialBytes is not %d bytes long", n, len(wire))
		}
		MaterialsFromWire(in)
		want := make([]Material, n)
		DecodeMaterials(want, wire)
		for i := range want {
			if in[i] != want[i] || in[i] != ms[i] {
				t.Fatalf("n=%d: table %d read through MaterialBytes differs from DecodeMaterials", n, i)
			}
		}
	}
}

func TestMaterialCodecNoAllocs(t *testing.T) {
	ms := make([]Material, 256)
	buf := make([]byte, MaterialSize*len(ms))
	if avg := testing.AllocsPerRun(100, func() {
		EncodeMaterials(buf, ms)
		DecodeMaterials(ms, buf)
	}); avg != 0 {
		t.Fatalf("material codec allocates %.1f times per run, want 0", avg)
	}
}
