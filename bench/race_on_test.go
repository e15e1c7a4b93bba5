//go:build race

package main

// raceEnabled: the detector slows the tiny smoke ~10x, so its time limit
// does not apply.
const raceEnabled = true
