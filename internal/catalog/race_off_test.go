//go:build !race

package catalog

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// what it is given at random.
const raceEnabled = false
