package prom

import (
	"strconv"
	"strings"
	"testing"
)

// TestWriters pins each writer's bytes: integers as %d, floats as %g,
// label values quoted.
func TestWriters(t *testing.T) {
	var b strings.Builder
	Counter(&b, "x_total", "Things.", uint64(1<<40))
	Gauge(&b, "x_ratio", "A ratio.", 0.25)
	Gauge(&b, "x_big", "A large float.", 3e21)
	Family(&b, "x_items", "gauge", "Items per shard.", "shard", 2, func(i int) (string, int) {
		return strconv.Itoa(i), 10 * i
	})
	Family(&b, "x_ns_total", "counter", "Per namespace.", "ns", 1, func(int) (string, uint64) {
		return `a"b`, 7
	})
	want := `# HELP x_total Things.
# TYPE x_total counter
x_total 1099511627776
# HELP x_ratio A ratio.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_big A large float.
# TYPE x_big gauge
x_big 3e+21
# HELP x_items Items per shard.
# TYPE x_items gauge
x_items{shard="0"} 0
x_items{shard="1"} 10
# HELP x_ns_total Per namespace.
# TYPE x_ns_total counter
x_ns_total{ns="a\"b"} 7
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
