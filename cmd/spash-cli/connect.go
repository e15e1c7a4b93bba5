package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"spash/internal/resp"
)

// runConnect is the remote shell: every input line is sent to the
// server as one RESP command (the local shell's put and len are
// accepted as aliases of SET and DBSIZE so both sessions read alike)
// and the reply is printed redis-cli style.
func runConnect(addr string) {
	cl, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cl.Close()
	fmt.Printf("spash-cli — connected to %s\n", addr)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		switch strings.ToLower(args[0]) {
		case "quit", "exit":
			return
		case "put":
			args[0] = "SET"
		case "len":
			args[0] = "DBSIZE"
		}
		rep, err := cl.Do(args...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "connection error:", err)
			os.Exit(1)
		}
		printReply(rep, "")
		cl.Release()
	}
}

func printReply(r resp.Reply, indent string) {
	switch {
	case r.Null:
		fmt.Println(indent + "(nil)")
	case r.Kind == resp.ErrorReply:
		fmt.Printf("%s(error) %s\n", indent, r.Str)
	case r.Kind == resp.Integer:
		fmt.Printf("%s(integer) %d\n", indent, r.Int)
	case r.Kind == resp.Array:
		for i, e := range r.Arr {
			printReply(e, fmt.Sprintf("%s%d) ", indent, i+1))
		}
	case r.Kind == resp.BulkString:
		fmt.Printf("%s%q\n", indent, r.Str)
	default:
		fmt.Printf("%s%s\n", indent, r.Str)
	}
}
