package bench

import "testing"

func TestParallelGarbling(t *testing.T) {
	e := NewEnv(Small)
	rows, s, err := e.ParallelGarbling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.ANDGates == 0 || r.SeqNs == 0 {
			t.Fatalf("%s: empty measurement", r.Name)
		}
		for _, wk := range parallelWorkerCounts {
			if r.WorkerNs[wk] == 0 {
				t.Fatalf("%s: no x%d measurement", r.Name, wk)
			}
		}
		if r.Seq2PCNs == 0 {
			t.Fatalf("%s: missing 2PC measurement", r.Name)
		}
	}
	if s == "" {
		t.Fatal("empty rendering")
	}
}
