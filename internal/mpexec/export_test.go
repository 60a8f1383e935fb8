package mpexec

import "time"

// SetHeartbeatInterval replaces the pool-wide heartbeat period and returns a
// function restoring it, so a test can watch the missed-heartbeat detector
// fire in well under the 4 s the real period needs. The re-executed helper
// workers call it too (MPEXEC_HEARTBEAT): both ends of a connection must
// agree on the period. Call it only while no coordinator or worker of this
// process is running.
func SetHeartbeatInterval(d time.Duration) (restore func()) {
	old := heartbeatInterval
	heartbeatInterval = d
	return func() { heartbeatInterval = old }
}
