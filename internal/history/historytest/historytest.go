// Package historytest holds helpers for tests that read a history.Store.
package historytest

import (
	"testing"

	"bpms/internal/history"
)

// CountType counts h's events of type typ, read through All, and fails
// t if the read fails.
func CountType(t testing.TB, h *history.Store, typ history.EventType) int {
	t.Helper()
	n := 0
	if err := h.All(func(e *history.Event) error {
		if e.Type == typ {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}
