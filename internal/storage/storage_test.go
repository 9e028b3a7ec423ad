package storage

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// Feed is a live feed of one example in one call: Reserve its id, then
// put a copy of the payload, as the scheduler's feed path does.
func (s *TaskStore) Feed(input, output []float64) int {
	id := s.Reserve(1)
	s.PutExample(Example{ID: id, Input: slices.Clone(input), Output: slices.Clone(output), Enabled: true})
	return id
}

func TestFeedAssignsSequentialIDs(t *testing.T) {
	ts := NewTaskStore()
	id1 := ts.Feed([]float64{1}, []float64{0})
	id2 := ts.Feed([]float64{2}, []float64{1})
	if id1 != 1 || id2 != 2 {
		t.Errorf("ids %d,%d, want 1,2", id1, id2)
	}
	exs := ts.Examples()
	if len(exs) != 2 {
		t.Fatalf("%d examples", len(exs))
	}
	if !exs[0].Enabled || !exs[1].Enabled {
		t.Error("fresh examples should be enabled")
	}
	if exs[0].Input[0] != 1 || exs[1].Output[0] != 1 {
		t.Error("payload mismatch")
	}
}

func TestFeedCopiesPayload(t *testing.T) {
	ts := NewTaskStore()
	in := []float64{1, 2}
	ts.Feed(in, []float64{0})
	in[0] = 99
	if ts.Examples()[0].Input[0] != 1 {
		t.Error("Feed aliases caller slice")
	}
}

func TestRefine(t *testing.T) {
	ts := NewTaskStore()
	id := ts.Feed([]float64{1}, []float64{0})
	ts.Feed([]float64{2}, []float64{1})
	if err := ts.Refine(id, false); err != nil {
		t.Fatal(err)
	}
	if got := ts.EnabledCount(); got != 1 {
		t.Errorf("EnabledCount = %d, want 1", got)
	}
	if err := ts.Refine(id, true); err != nil {
		t.Fatal(err)
	}
	if got := ts.EnabledCount(); got != 2 {
		t.Errorf("EnabledCount = %d, want 2", got)
	}
	if err := ts.Refine(999, false); err == nil {
		t.Error("Refine of unknown id should fail")
	}
}

func TestRecordModelTracksBest(t *testing.T) {
	ts := NewTaskStore()
	if _, ok := ts.Best(); ok {
		t.Error("empty store has a best model")
	}
	ts.RecordModel(ModelRecord{Name: "AlexNet", Accuracy: 0.60, Round: 1}, 1)
	ts.RecordModel(ModelRecord{Name: "ResNet", Accuracy: 0.75, Round: 2}, 1)
	ts.RecordModel(ModelRecord{Name: "NIN", Accuracy: 0.62, Round: 3}, 1)
	best, ok := ts.Best()
	if !ok || best.Name != "ResNet" || best.Accuracy != 0.75 {
		t.Errorf("Best = %+v", best)
	}
	if got := len(ts.Models()); got != 3 {
		t.Errorf("%d models recorded", got)
	}
	// Models() must be a copy.
	ms := ts.Models()
	ms[0].Name = "tampered"
	if ts.Models()[0].Name != "AlexNet" {
		t.Error("Models aliases internal state")
	}
}

func TestStoreTaskLifecycle(t *testing.T) {
	s := NewStore()
	ts, err := s.CreateTask("a")
	if err != nil || ts == nil {
		t.Fatalf("CreateTask: %v", err)
	}
	if _, err := s.CreateTask("a"); err == nil {
		t.Error("duplicate task accepted")
	}
	if _, ok := s.Task("a"); !ok {
		t.Error("task not found")
	}
	if _, ok := s.Task("missing"); ok {
		t.Error("phantom task found")
	}
	if _, err := s.CreateTask("b"); err != nil {
		t.Fatal(err)
	}
}

// Concurrency: hammer one task store from many goroutines; run with -race.
func TestConcurrentAccess(t *testing.T) {
	ts := NewTaskStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := ts.Feed([]float64{float64(g)}, []float64{float64(i)})
				_ = ts.Refine(id, i%2 == 0)
				ts.RecordModel(ModelRecord{Name: "m", Accuracy: float64(i) / 50}, 1)
				ts.Examples()
				ts.Best()
				ts.EnabledCount()
			}
		}(g)
	}
	wg.Wait()
	if got := len(ts.Examples()); got != 400 {
		t.Errorf("%d examples after concurrent feed, want 400", got)
	}
}

// Property: after an arbitrary refine sequence, EnabledCount equals the
// number of examples whose last toggle was "on".
func TestQuickRefineConsistency(t *testing.T) {
	f := func(toggles []bool) bool {
		ts := NewTaskStore()
		const n = 5
		for i := 0; i < n; i++ {
			ts.Feed([]float64{float64(i)}, nil)
		}
		state := [n]bool{true, true, true, true, true}
		for i, on := range toggles {
			id := i%n + 1
			if err := ts.Refine(id, on); err != nil {
				return false
			}
			state[id-1] = on
		}
		want := 0
		for _, on := range state {
			if on {
				want++
			}
		}
		return ts.EnabledCount() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
