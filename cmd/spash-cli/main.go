// Command spash-cli is a RESP shell for spash-serve: every input line
// is sent to the server as one command and the reply is printed
// redis-cli style, so the wire front end is testable without redis-cli.
// It uses the client code the replication wire transport uses.
//
// Usage:
//
//	spash-cli [-connect 127.0.0.1:6399]
//	> put user1 hello
//	> get user1
//	> len
//	> quit
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	connect := flag.String("connect", "127.0.0.1:6399", "address of a running spash-serve (host:port)")
	flag.Parse()
	if err := runConnect(*connect, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
