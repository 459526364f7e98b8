//go:build race

package proto

// raceEnabled reports that the race detector is on; it randomly drops
// sync.Pool entries, which makes allocation counts meaningless.
const raceEnabled = true
