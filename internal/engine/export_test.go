package engine

// DeferRetirement makes e hand each retirement to hook instead of
// running it, so a test can read finished cases before they retire.
func DeferRetirement(e *Engine, hook func(retire func())) { e.retireHook = hook }

// DecodeRecord decodes a state journal or snapshot record as recovery
// does and, for a finished case, as a read of it does.
func DecodeRecord(p []byte) error {
	v, err := decodeRecoveryRecord(p)
	if f, ok := v.(*finishedRec); ok {
		_, err = parseState(f.state)
	}
	return err
}
