package storage

// State returns a deep copy of the store's state, safe to hand to another
// store's RestoreState: the copies' shapes carry no number, so a restore
// numbers them in ID order.
func (s *Store) State() *StoreState {
	st := s.CaptureState(nil)
	for i, rec := range st.Records {
		st.Records[i] = rec.Clone()
	}
	st.Shapes, st.NextShape = nil, 0
	return st
}
