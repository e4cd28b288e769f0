package store

import "fmt"

// Shard ingest: the merge step of the fleet subsystem. Every fleet worker
// appends certificates to its own store shard; Ingest folds one shard into
// a canonical store. Because certificates are pure functions of their
// keys, the merge semantics are exactly the store's existing conflict
// discipline: identical duplicates fold silently to one record,
// contradictory records for the same key fail the merge loudly — a
// contradiction can only mean a corrupted shard or a buggy writer, and
// silently picking a side would serve wrong answers forever after.

// IngestStats summarizes one Ingest call.
type IngestStats struct {
	// Certificates counts the records newly added to the destination.
	Certificates int `json:"certificates"`
	// Duplicates counts source records the destination already held with
	// identical content — the overlap a reclaimed-and-rerun lease (or an
	// overlapping shard) produces, folded to nothing.
	Duplicates int `json:"duplicates"`
}

// Ingest folds every certificate of src into s. It stops at the first
// conflicting record and returns the error; records ingested before the
// conflict remain (they were valid). The caller owns flushing: ingested
// records follow s's normal batching and are durable after Flush or
// Close.
func (s *Store) Ingest(src *Store) (IngestStats, error) {
	var st IngestStats
	var err error
	src.RangeCerts(func(r CertRecord) bool {
		if prev, ok := s.GetCert(r.Key()); ok {
			if !prev.Set.Equal(r.Set) {
				err = fmt.Errorf("store: ingest conflict: certificate for %v disagrees with the destination", r.Key())
				return false
			}
			st.Duplicates++
			return true
		}
		if err = s.PutCert(r); err != nil {
			return false
		}
		st.Certificates++
		return true
	})
	return st, err
}
