//go:build race

package delta

// raceEnabled reports a -race build. Its sync.Pool drops a random share
// of the items put back, so pooled scratches are re-allocated and
// allocation counts do not repeat.
const raceEnabled = true
