//go:build !race

package bitvec_test

// raceEnabled gates tests that are meaningless under the race detector
// (resident-set measurements: -race adds shadow memory for every page).
const raceEnabled = false
