package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"spash/internal/resp"
)

// runConnect is the shell: every line read from in is sent to the
// server at addr as one RESP command (put and len are accepted as
// aliases of SET and DBSIZE) and the reply is written to out
// redis-cli style. It returns at end of input or quit, and on a dial
// or connection error.
func runConnect(addr string, in io.Reader, out io.Writer) error {
	cl, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Fprintf(out, "spash-cli — connected to %s\n", addr)

	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			return sc.Err()
		}
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		switch strings.ToLower(args[0]) {
		case "quit", "exit":
			return nil
		case "put":
			args[0] = "SET"
		case "len":
			args[0] = "DBSIZE"
		}
		rep, err := cl.Do(args...)
		if err != nil {
			return fmt.Errorf("connection error: %w", err)
		}
		printReply(out, rep, "")
		cl.Release()
	}
}

func printReply(out io.Writer, r resp.Reply, indent string) {
	switch {
	case r.Null:
		fmt.Fprintln(out, indent+"(nil)")
	case r.Kind == resp.ErrorReply:
		fmt.Fprintf(out, "%s(error) %s\n", indent, r.Str)
	case r.Kind == resp.Integer:
		fmt.Fprintf(out, "%s(integer) %d\n", indent, r.Int)
	case r.Kind == resp.Array:
		for i, e := range r.Arr {
			printReply(out, e, fmt.Sprintf("%s%d) ", indent, i+1))
		}
	case r.Kind == resp.BulkString:
		fmt.Fprintf(out, "%s%q\n", indent, r.Str)
	default:
		fmt.Fprintf(out, "%s%s\n", indent, r.Str)
	}
}
