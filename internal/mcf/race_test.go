//go:build race

package mcf

// raceEnabled reports a -race build. Its sync.Pool drops a random share
// of the items put back, so pooled workspaces are re-allocated and
// allocation counts do not repeat.
const raceEnabled = true
