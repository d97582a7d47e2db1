package serve

import "time"

// MaxBodyBytes is the request-body bound, for the tests.
const MaxBodyBytes = maxBodyBytes

// SetReadHeaderTimeout sets the header deadline of the servers Serve
// builds from now on and returns the one it replaces.
func SetReadHeaderTimeout(d time.Duration) time.Duration {
	old := readHeaderTimeout
	readHeaderTimeout = d
	return old
}
