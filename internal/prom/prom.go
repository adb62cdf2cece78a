// Package prom writes the Prometheus text exposition format (version
// 0.0.4) that every /metrics contribution in the repository uses: each
// family is its # HELP and # TYPE lines, then its samples.
package prom

import (
	"fmt"
	"io"
)

// Number is a sample's value: an integer is written as %d, a float as
// %g. The types are exact, so a named type with a String method (a
// time.Duration) cannot slip in as its text.
type Number interface {
	int | int64 | uint32 | uint64 | float64
}

// Bool is the sample of a boolean: 1 for true, 0 for false.
func Bool(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Header writes the # HELP and # TYPE lines of family name, whose type
// typ is counter, gauge or histogram.
func Header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes counter family name with its one sample, v.
func Counter[N Number](w io.Writer, name, help string, v N) {
	Header(w, name, "counter", help)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// Gauge writes gauge family name with its one sample, v.
func Gauge[N Number](w io.Writer, name, help string, v N) {
	Header(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// Family writes family name of type typ with n samples, one per value of
// label: sample(i) returns the i-th sample's label value and its value.
func Family[N Number](w io.Writer, name, typ, help, label string, n int, sample func(i int) (string, N)) {
	Header(w, name, typ, help)
	for i := range n {
		l, v := sample(i)
		fmt.Fprintf(w, "%s{%s=%q} %v\n", name, label, l, v)
	}
}
