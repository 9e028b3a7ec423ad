package storage

import (
	"encoding/json"
	"fmt"
	"io"
)

// Snapshot/Load give the shared store crash-restart durability: the server
// can checkpoint all fed examples, refine states and completed model records
// to a writer (typically a file on the 100 TB shared storage of Figure 1)
// and restore them on startup. With a write-ahead log attached (see wal.go),
// the snapshot is the compaction target: it additionally records the job
// registry, the abandoned-candidate sets and the WAL sequence number it
// covers, so boot-time recovery replays only the log's tail.

// storeSnapshot is the JSON wire format of a Store. Version 1 carried tasks
// only; version 2 adds the WAL-compaction metadata (jobs, abandoned,
// last_seq); version 3 adds the budget-exhausted job set. All versions
// load.
type storeSnapshot struct {
	Version   int                     `json:"version"`
	Tasks     map[string]taskSnapshot `json:"tasks"`
	Jobs      []JobMeta               `json:"jobs,omitempty"`
	Abandoned map[string][]string     `json:"abandoned,omitempty"`
	// BudgetExhausted lists jobs drained by tenant budget exhaustion;
	// compaction must fold the WAL's budget_exhausted events in here or a
	// compacted-then-restarted process would resume training them.
	BudgetExhausted []string `json:"budget_exhausted,omitempty"`
	LastSeq         uint64   `json:"last_seq,omitempty"`
}

type taskSnapshot struct {
	NextID   int           `json:"next_id"`
	Examples []Example     `json:"examples"`
	Models   []ModelRecord `json:"models"`
}

const snapshotVersion = 3

// Snapshot serializes the whole store as JSON (tasks only — the legacy
// checkpoint surface of GET /admin/snapshot). The WAL compaction path uses
// writeSnapshot, which adds the job registry and sequence horizon.
func (s *Store) Snapshot(w io.Writer) error {
	return writeSnapshot(w, s, nil, nil, nil, 0)
}

// writeSnapshot serializes the store plus compaction metadata.
func writeSnapshot(w io.Writer, s *Store, jobs []JobMeta, abandoned map[string][]string, budgetExhausted []string, lastSeq uint64) error {
	s.mu.RLock()
	taskIDs := make([]string, 0, len(s.tasks))
	for id := range s.tasks {
		taskIDs = append(taskIDs, id)
	}
	s.mu.RUnlock()

	snap := storeSnapshot{
		Version:         snapshotVersion,
		Tasks:           make(map[string]taskSnapshot, len(taskIDs)),
		Jobs:            jobs,
		Abandoned:       abandoned,
		BudgetExhausted: budgetExhausted,
		LastSeq:         lastSeq,
	}
	for _, id := range taskIDs {
		ts, ok := s.Task(id)
		if !ok {
			continue // task removed concurrently; snapshot what remains
		}
		// Collect examples sorted by id without re-entering the task lock
		// (RWMutex read locks must not nest: a queued writer would deadlock
		// the second acquisition).
		exs := ts.Examples()
		ts.mu.RLock()
		t := taskSnapshot{NextID: ts.nextID, Examples: exs}
		t.Models = append(t.Models, ts.models...)
		ts.mu.RUnlock()
		snap.Tasks[id] = t
	}
	// Compact, not indented: indenting a large store's snapshot took longer
	// than encoding it, and it runs on every compaction and shutdown.
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	return nil
}

// LoadStore reconstructs a store from a Snapshot stream.
func LoadStore(r io.Reader) (*Store, error) {
	s, _, _, _, _, err := loadSnapshot(r)
	return s, err
}

// loadSnapshot reconstructs a store plus the compaction metadata from a
// snapshot stream. Version-1 snapshots load with empty metadata.
func loadSnapshot(r io.Reader) (*Store, []JobMeta, map[string][]string, []string, uint64, error) {
	var snap storeSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, nil, nil, nil, 0, fmt.Errorf("storage: load: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, nil, nil, nil, 0, fmt.Errorf("storage: unsupported snapshot version %d", snap.Version)
	}
	s := NewStore()
	for id, t := range snap.Tasks {
		ts, err := s.CreateTask(id)
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		ts.mu.Lock()
		for _, ex := range t.Examples {
			if ex.ID <= 0 {
				ts.mu.Unlock()
				return nil, nil, nil, nil, 0, fmt.Errorf("storage: task %q has example with invalid id %d", id, ex.ID)
			}
			cp := ex
			ts.examples[ex.ID] = &cp
		}
		ts.nextID = t.NextID
		// nextID must stay ahead of every restored example.
		for eid := range ts.examples {
			if eid >= ts.nextID {
				ts.nextID = eid + 1
			}
		}
		for _, m := range t.Models {
			ts.models = append(ts.models, m)
			if ts.best == nil || m.Accuracy > ts.best.Accuracy {
				cp := m
				ts.best = &cp
			}
		}
		ts.mu.Unlock()
	}
	return s, snap.Jobs, snap.Abandoned, snap.BudgetExhausted, snap.LastSeq, nil
}
