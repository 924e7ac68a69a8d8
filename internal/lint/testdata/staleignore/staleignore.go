// Package staleignore is an execlint fixture for suppression hygiene:
// one live directive, one dead one, and one naming a check outside the
// run's selection.
package staleignore

// live suppresses a real floateq finding.
func live(a, b float64) bool {
	//lint:ignore floateq fixture: justified suppression that stays live
	return a == b
}

// dead carries a directive with nothing left to suppress — the
// comparison it once covered is gone.
func dead() int {
	//lint:ignore floateq fixture: the finding this covered is gone
	return 42
}

// otherCheck names a check not selected in the hygiene run; the report
// must not call it stale — that run never gave it a chance to fire.
func otherCheck() int {
	//lint:ignore maporder fixture: different check, not selected in this run
	return 1
}
