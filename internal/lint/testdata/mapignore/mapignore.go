// Package mapignore is an execlint fixture for suppressing
// interprocedural findings: maporder reports an effect two calls below
// a map range on the range line, so one //lint:ignore there silences
// the whole chain.
package mapignore

// emit appends through a pointer: the effect the ranges below reach.
func emit(out *[]string, s string) { *out = append(*out, s) }

// relay reaches emit one hop further down.
func relay(out *[]string, s string) { emit(out, s) }

// collectDocumented carries a justified suppression on the range line.
func collectDocumented(m map[string]int) []string {
	var keys []string
	//lint:ignore maporder fixture: the caller sorts the keys it gets back
	for k := range m {
		relay(&keys, k)
	}
	return keys
}

// collectLoud has no suppression and must be reported.
func collectLoud(m map[string]int) []string {
	var keys []string
	for k := range m {
		relay(&keys, k)
	}
	return keys
}
