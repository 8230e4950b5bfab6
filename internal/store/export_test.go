package store

// WriteRaw exposes the entry writer so tests can plant entries of any kind,
// including retired ones no exported Save method produces.
func WriteRaw(s *Store, kind Kind, progKey, stageKey string, payload []byte) error {
	return s.write(kind, progKey, stageKey, payload)
}
