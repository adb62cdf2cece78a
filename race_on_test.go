//go:build race

package mpcbf

// raceEnabled gates tests that are meaningless under the race detector
// (e.g. allocation bounds that rely on sync.Pool keeping its items).
const raceEnabled = true
