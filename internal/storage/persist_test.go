package storage

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	tsA, _ := s.CreateTask("a")
	id1 := tsA.Feed([]float64{1, 2}, []float64{0})
	id2 := tsA.Feed([]float64{3}, []float64{1})
	if err := tsA.Refine(id2, false); err != nil {
		t.Fatal(err)
	}
	tsA.RecordModel(ModelRecord{Name: "AlexNet", Accuracy: 0.6, Cost: 2, Round: 1})
	tsA.RecordModel(ModelRecord{Name: "ResNet", Accuracy: 0.8, Cost: 5, Round: 2})
	tsB, _ := s.CreateTask("b")
	tsB.Feed([]float64{9}, []float64{9})

	jobs := []JobMeta{{ID: "a", Name: "dogs", Program: "p"}}
	abandoned := map[string][]string{"a": {"VGG"}}
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, s, jobs, abandoned, []string{"b"}, 42); err != nil {
		t.Fatal(err)
	}
	restored, gotJobs, gotAbandoned, gotExhausted, lastSeq, err := loadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotJobs, jobs) || !reflect.DeepEqual(gotAbandoned, abandoned) ||
		!reflect.DeepEqual(gotExhausted, []string{"b"}) || lastSeq != 42 {
		t.Errorf("metadata lost: jobs %v abandoned %v exhausted %v last_seq %d", gotJobs, gotAbandoned, gotExhausted, lastSeq)
	}

	ids := restored.TaskIDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("TaskIDs = %v", ids)
	}
	ra, _ := restored.Task("a")
	exs := ra.Examples()
	if len(exs) != 2 {
		t.Fatalf("%d examples", len(exs))
	}
	if !exs[0].Enabled || exs[1].Enabled {
		t.Errorf("refine state lost: %+v", exs)
	}
	if exs[0].Input[1] != 2 {
		t.Errorf("payload lost: %+v", exs[0])
	}
	best, ok := ra.Best()
	if !ok || best.Name != "ResNet" || best.Accuracy != 0.8 {
		t.Errorf("best lost: %+v", best)
	}
	if len(ra.Models()) != 2 {
		t.Errorf("model history lost")
	}
	// New feeds continue the id sequence without collision.
	if next := ra.Feed([]float64{5}, []float64{5}); next <= id2 || next <= id1 {
		t.Errorf("id sequence regressed: %d", next)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, NewStore(), nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	restored, _, _, _, _, err := loadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.TaskIDs()) != 0 {
		t.Error("phantom tasks after empty round trip")
	}
}

func TestLoadSnapshotErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":     "not json",
		"bad version": `{"version": 99, "tasks": {}}`,
		"bad example": `{"version": 1, "tasks": {"a": {"next_id": 1, "examples": [{"ID": 0}]}}}`,
	}
	for name, data := range cases {
		if _, _, _, _, _, err := loadSnapshot(strings.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSnapshotIsDeterministicJSON(t *testing.T) {
	s := NewStore()
	ts, _ := s.CreateTask("x")
	ts.Feed([]float64{1}, []float64{2})
	var a, b bytes.Buffer
	if err := writeSnapshot(&a, s, nil, nil, nil, 7); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(&b, s, nil, nil, nil, 7); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("snapshots of unchanged store differ")
	}
}
