package client

import (
	"strings"
	"testing"
)

// TestClientPromExposition pins a connection's exposition, byte for
// byte, for fixed counters.
func TestClientPromExposition(t *testing.T) {
	c := &Client{addr: "127.0.0.1:7070"}
	c.stRequests.Store(1234)
	c.stTransportErr.Store(5)
	c.stRedials.Store(4)
	c.stRetries.Store(9)
	c.stMaybeApplied.Store(1)
	var b strings.Builder
	c.WriteProm(&b)
	if got := b.String(); got != clientPromWant {
		t.Fatalf("client exposition:\n%s\nwant:\n%s", got, clientPromWant)
	}
}

// clientPromWant is the exposition of TestClientPromExposition's
// counters.
const clientPromWant = `# HELP mpcbfd_client_requests_total Operations attempted on this connection.
# TYPE mpcbfd_client_requests_total counter
mpcbfd_client_requests_total{addr="127.0.0.1:7070"} 1234
# HELP mpcbfd_client_transport_errors_total Connection-breaking transport failures.
# TYPE mpcbfd_client_transport_errors_total counter
mpcbfd_client_transport_errors_total{addr="127.0.0.1:7070"} 5
# HELP mpcbfd_client_redials_total Successful reconnects.
# TYPE mpcbfd_client_redials_total counter
mpcbfd_client_redials_total{addr="127.0.0.1:7070"} 4
# HELP mpcbfd_client_retries_total Backoff sleeps before re-attempts.
# TYPE mpcbfd_client_retries_total counter
mpcbfd_client_retries_total{addr="127.0.0.1:7070"} 9
# HELP mpcbfd_client_maybe_applied_total Mutations interrupted in transit (ErrMaybeApplied).
# TYPE mpcbfd_client_maybe_applied_total counter
mpcbfd_client_maybe_applied_total{addr="127.0.0.1:7070"} 1
`
