//go:build !race

package campaign

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
