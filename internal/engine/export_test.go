package engine

// HeldRecs looks at the batch db keeps in its scratch and the batch each
// of its chunk forks keeps, over their whole capacity: batches is how many
// there are, held how many record slots in them are not nil.
func HeldRecs(db *Session) (held, batches int) {
	for _, s := range append([]*Session{db}, db.chunkForks...) {
		if s == nil || s.scratch == nil || s.scratch.Batch == nil {
			continue
		}
		batches++
		recs := s.scratch.Batch.Recs
		for _, r := range recs[:cap(recs)] {
			if r != nil {
				held++
			}
		}
	}
	return held, batches
}
