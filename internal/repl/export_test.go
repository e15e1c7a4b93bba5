package repl

// The log bounds are unexported constants (no caller needs another
// value); the tests that drive a log to its bound read them here.
const (
	PrimaryLogFrames = primaryLogFrames
	ReplicaLogFrames = replicaLogFrames
)
