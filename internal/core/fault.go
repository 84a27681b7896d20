package core

import (
	"fmt"

	"repro/internal/checkpoint"
)

// RunError reports a run stopped without completing: at an instance
// boundary (cancellation, an injected fault, a demanded checkpoint) or by a
// poisoned HPCG team (cancellation at a fork, a contained kernel panic).
// The cursor pins the first instance that did not complete.
type RunError struct {
	// Thread is the 1-based thread whose schedule was interrupted, 0 when
	// the fault is global (a poisoned team aborting the CG solve).
	Thread int
	// Cursor locates the first instance that did not complete.
	Cursor checkpoint.Cursor
	// Cause is the underlying fault: context.Canceled,
	// context.DeadlineExceeded, a faultinject error or a recovered panic.
	Cause error
}

func (e *RunError) Error() string {
	if e.Thread > 0 {
		return fmt.Sprintf("core: run stopped on thread %d before instance (thread %d, iter %d): %v",
			e.Thread, e.Cursor.Thread, e.Cursor.Iter, e.Cause)
	}
	return fmt.Sprintf("core: run stopped after %d completed iterations: %v", e.Cursor.Iter, e.Cause)
}

func (e *RunError) Unwrap() error { return e.Cause }
