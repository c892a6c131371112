//go:build !race

package service

// raceEnabled reports a -race build, which slows the search engines
// several-fold; wall-clock bounds in tests scale by it.
const raceEnabled = false
