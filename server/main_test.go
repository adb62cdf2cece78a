package server

import (
	"os"
	"testing"

	"repro/internal/e2e"
)

// TestMain removes the e2e daemon build once every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	e2e.RemoveBuild()
	os.Exit(code)
}
