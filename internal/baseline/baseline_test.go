package baseline

import (
	"testing"
	"time"

	"haac/internal/gc"
	"haac/internal/workloads"
)

func TestMeasureCPUSane(t *testing.T) {
	m := MeasureCPU(gc.RekeyedHasher{}, false)
	if m.NsPerAND <= 0 || m.NsPerXOR <= 0 {
		t.Fatalf("non-positive per-gate costs: %+v", m)
	}
	if m.NsPerAND < m.NsPerXOR {
		t.Fatalf("AND (%v ns) cheaper than XOR (%v ns)", m.NsPerAND, m.NsPerXOR)
	}
	// An AND gate costs four AES plus two key expansions. On the
	// T-table tier that is ~100x an XOR (two 128-bit xors); on AES-NI the
	// ratio drops to ~10-20x, so the floor is set well under both.
	if m.NsPerAND < 4*m.NsPerXOR {
		t.Fatalf("AND/XOR ratio %.1f implausibly small", m.NsPerAND/m.NsPerXOR)
	}
}

func TestRekeyingCostsMore(t *testing.T) {
	// §2.1: re-keying increases Half-Gate cost (paper: +27.5% on their
	// CPU). Direction, not magnitude, is the assertion.
	rk := MeasureCPU(gc.RekeyedHasher{}, false)
	fk := MeasureCPU(gc.NewFixedKeyHasher([16]byte{1}), false)
	if rk.NsPerAND <= fk.NsPerAND {
		t.Skipf("rekeyed %.0f ns <= fixed %.0f ns: timing noise on this host", rk.NsPerAND, fk.NsPerAND)
	}
}

func TestGCTimeExtrapolation(t *testing.T) {
	m := CPUModel{NsPerAND: 100, NsPerXOR: 10}
	c := workloads.Hamming(256).Build()
	s := c.ComputeStats()
	want := time.Duration(float64(s.ANDGates)*100+float64(s.Gates-s.ANDGates)*10) * time.Nanosecond
	if got := m.GCTime(s); got != want {
		t.Fatalf("GCTime = %v, want %v", got, want)
	}
	if m.GatesPerSecond(s) <= 0 {
		t.Fatal("GatesPerSecond must be positive")
	}
}

func TestTimePlain(t *testing.T) {
	d := TimePlain(func() { time.Sleep(200 * time.Microsecond) })
	if d < 100*time.Microsecond || d > 20*time.Millisecond {
		t.Fatalf("TimePlain measured %v for a 200us sleep", d)
	}
}

func TestPaperNumbersPresent(t *testing.T) {
	if PaperNumbers.HAACSpeedupDDR4 != 589 || PaperNumbers.HAACSpeedupHBM2 != 2627 {
		t.Fatal("paper reference numbers drifted")
	}
}
