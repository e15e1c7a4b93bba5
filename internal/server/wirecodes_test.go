package server

import (
	"errors"
	"testing"

	"spash"
)

// Every typed replication refusal crosses the wire as itself: the
// decoded error matches its sentinel and keeps shard and epoch.
func TestReplErrorCodesRoundTrip(t *testing.T) {
	for _, sentinel := range []error{
		spash.ErrNotPrimary, spash.ErrReplicaLag, spash.ErrNeedsReseed,
		spash.ErrTransportTimeout, spash.ErrRetryExhausted, spash.ErrClosed,
		spash.ErrNoSpace,
	} {
		msg := encodeReplError(&spash.ReplicationError{Shard: 1, Epoch: 3, Err: sentinel})
		err := decodeReplError(msg)
		if !errors.Is(err, sentinel) {
			t.Errorf("%v: %q decodes to %v", sentinel, msg, err)
			continue
		}
		var re *spash.ReplicationError
		if !errors.As(err, &re) || re.Shard != 1 || re.Epoch != 3 {
			t.Errorf("%v: %q decodes to %#v, want shard 1 epoch 3", sentinel, msg, re)
		}
	}
}
