//go:build race

package core

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops items at random, so code that formats with fmt allocates
// a varying amount from call to call.
const raceEnabled = true
