// Package storage implements ease.ml's shared storage (§2, Figure 1): a
// concurrency-safe store holding, per task, the supervision examples the
// user feeds, their on/off state (the refine operator), and the trained
// model records the scheduler produces. Every feed/refine/infer invocation
// from the generated binaries lands here on the central server.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Example is one input/output supervision pair fed by a user. Payloads are
// opaque to the storage layer.
type Example struct {
	ID      int
	Input   []float64
	Output  []float64
	Enabled bool
}

// ModelRecord is one completed training run for a task.
type ModelRecord struct {
	Name     string  // candidate model name
	Accuracy float64 // measured validation accuracy
	Cost     float64 // execution cost (time units)
	Round    int     // global scheduling round it finished at
}

// TaskStore holds everything the server keeps for one task.
type TaskStore struct {
	mu       sync.RWMutex
	nextID   int
	examples map[int]*Example
	models   []ModelRecord
	ucbs     []float64 // per model: the UCB its arm was leased at
	best     *ModelRecord
}

// NewTaskStore returns an empty per-task store.
func NewTaskStore() *TaskStore {
	return &TaskStore{nextID: 1, examples: make(map[int]*Example)}
}

// Reserve assigns n consecutive example ids and returns the first: the
// ids of a live feed, whose examples then arrive through PutExample.
func (s *TaskStore) Reserve(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID += n
	return id
}

// PutExample inserts (or overwrites) an example under an id Reserve
// assigned, in this process or a previous one, preserving its enabled
// state. It takes ownership of ex.Input and ex.Output: the caller must
// not modify them afterwards. nextID stays ahead of every inserted id.
// Overwriting is what makes replay idempotent across the checkpoint
// boundary.
func (s *TaskStore) PutExample(ex Example) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.examples[ex.ID] = &ex
	if ex.ID >= s.nextID {
		s.nextID = ex.ID + 1
	}
}

// Refine turns an example on or off — the data-cleaning loop the paper
// motivates with weak/distant supervision noise. It returns an error for an
// unknown example id.
func (s *TaskStore) Refine(id int, enabled bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ex, ok := s.examples[id]
	if !ok {
		return fmt.Errorf("storage: no example %d", id)
	}
	ex.Enabled = enabled
	return nil
}

// Examples returns a copy of all examples sorted by id. Payload slices are
// shared (they are never mutated after PutExample).
func (s *TaskStore) Examples() []Example {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Example, 0, len(s.examples))
	for _, ex := range s.examples {
		out = append(out, *ex)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// EnabledCount returns the number of currently enabled examples.
func (s *TaskStore) EnabledCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ex := range s.examples {
		if ex.Enabled {
			n++
		}
	}
	return n
}

// RecordModel stores a completed training run, with the upper confidence
// bound its arm was leased at (which the checkpoint logs for the σ̃
// recurrence), and updates the best model if it improves on it ("the
// user has a view of the best available model").
func (s *TaskStore) RecordModel(rec ModelRecord, ucb float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models = append(s.models, rec)
	s.ucbs = append(s.ucbs, ucb)
	if s.best == nil || rec.Accuracy > s.best.Accuracy {
		cp := rec
		s.best = &cp
	}
}

// HasModel reports whether a run for the named candidate has been recorded
// (candidates train at most once per task, so the name is a natural key —
// WAL replay uses this to apply model_recorded events idempotently).
func (s *TaskStore) HasModel(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, m := range s.models {
		if m.Name == name {
			return true
		}
	}
	return false
}

// runs returns copies of the recorded training runs and their UCBs.
func (s *TaskStore) runs() ([]ModelRecord, []float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.models), slices.Clone(s.ucbs)
}

// Models returns a copy of all recorded training runs in completion order.
func (s *TaskStore) Models() []ModelRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]ModelRecord(nil), s.models...)
}

// Best returns the best model so far; ok is false before the first run
// completes.
func (s *TaskStore) Best() (ModelRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.best == nil {
		return ModelRecord{}, false
	}
	return *s.best, true
}

// Store is the server-wide shared storage: one TaskStore per task id.
type Store struct {
	mu    sync.RWMutex
	tasks map[string]*TaskStore
}

// NewStore returns an empty shared store.
func NewStore() *Store {
	return &Store{tasks: make(map[string]*TaskStore)}
}

// CreateTask allocates storage for a new task id. It returns an error if
// the id already exists.
func (s *Store) CreateTask(id string) (*TaskStore, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tasks[id]; ok {
		return nil, fmt.Errorf("storage: task %q already exists", id)
	}
	ts := NewTaskStore()
	s.tasks[id] = ts
	return ts, nil
}

// Task returns the store for a task id.
func (s *Store) Task(id string) (*TaskStore, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ts, ok := s.tasks[id]
	return ts, ok
}
