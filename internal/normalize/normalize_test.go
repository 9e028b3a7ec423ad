package normalize

import "testing"

func TestNewPanicsOnBadK(t *testing.T) {
	for _, k := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%g) should panic", k)
				}
			}()
			New(k)
		}()
	}
}

func TestSweep(t *testing.T) {
	def := Sweep(nil)
	if len(def) != len(DefaultKs) {
		t.Fatalf("default sweep has %d entries, want %d", len(def), len(DefaultKs))
	}
	for i, n := range def {
		if n.K != DefaultKs[i] {
			t.Errorf("sweep[%d] = %+v", i, n)
		}
	}
	custom := Sweep([]float64{0.3})
	if len(custom) != 1 || custom[0].K != 0.3 {
		t.Errorf("custom sweep %+v", custom)
	}
}

func TestName(t *testing.T) {
	if got := New(0.2).Name(); got != "norm(k=0.2)" {
		t.Errorf("Name = %q", got)
	}
}
