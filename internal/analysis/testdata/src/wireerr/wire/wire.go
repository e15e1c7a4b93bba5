// Fixture wire package for the wireerr analyzer: a code table with
// deliberate drift in every direction the analyzer diffs — a code
// listed twice (mistranslation on decode), a sentinel listed twice
// (dead code on encode), and (via the transport fixture's
// WireSentinels fact) a transport sentinel with no row at all.
package wire

import (
	"errors"

	"spash"
	"wireerr/transport"
)

var _ transport.Carrier = nil

// codes is the fixture's code table. The fact diff reports at the
// literal: the transport references spash.ErrTransportTimeout but no
// row carries it.
var codes = []struct { // want `transport sentinel spash\.ErrTransportTimeout has no wire encoding`
	code string
	err  error
}{
	{"NOTPRIMARY", spash.ErrNotPrimary},
	{"LAG", spash.ErrReplicaLag},
	{"CLOSED", spash.ErrClosed},
	{"CLOSED", spash.ErrRetryExhausted},  // want `wire code "CLOSED" is listed twice: it decodes to spash\.ErrClosed only, so spash\.ErrRetryExhausted is mistranslated`
	{"STALE", spash.ErrReplicaLag},       // want `spash\.ErrReplicaLag is listed twice: it encodes as "LAG" only, so wire code "STALE" is dead vocabulary`
	{code: "SHUT", err: spash.ErrClosed}, //spash:allow wireerr -- fixture: a legacy alias kept for old clients
}

// encode renders a refusal as a wire code.
func encode(err error) string {
	for _, c := range codes {
		if errors.Is(err, c.err) {
			return c.code
		}
	}
	return "ERR"
}

// decode maps a wire code back to a sentinel.
func decode(code string) error {
	for _, c := range codes {
		if c.code == code {
			return c.err
		}
	}
	return nil
}
