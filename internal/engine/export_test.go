package engine

// DeferRetirement makes e hand each retirement to hook instead of
// running it, so a test can read finished cases before they retire.
func DeferRetirement(e *Engine, hook func(retire func())) { e.retireHook = hook }
