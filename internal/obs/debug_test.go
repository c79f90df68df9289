package obs

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// brokenWriter models a client that disconnected: like the real
// http.ResponseWriter, the first Write implicitly commits a 200 header
// before hitting the (now dead) connection, and every Write fails. It
// records WriteHeader calls so a regression back to
// http.Error-after-first-write shows up as a second, superfluous call.
type brokenWriter struct {
	header      http.Header
	headerCalls []int
	attempts    int
}

func (b *brokenWriter) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}

func (b *brokenWriter) WriteHeader(code int) {
	b.headerCalls = append(b.headerCalls, code)
}

func (b *brokenWriter) Write(p []byte) (int, error) {
	if len(b.headerCalls) == 0 {
		// net/http commits the status line before the body write that
		// discovers the dead connection.
		b.WriteHeader(http.StatusOK)
	}
	b.attempts++
	return 0, errors.New("write tcp: broken pipe")
}

// TestServeObsClientDisconnect: a client vanishing before /debug/obs
// finishes writing must not trigger a second WriteHeader (the
// "superfluous response.WriteHeader" + error-line-on-a-200-body risk):
// the record is serialized to a buffer before the first byte touches
// the writer, so a failed write is simply abandoned.
func TestServeObsClientDisconnect(t *testing.T) {
	r := New()
	r.Counter("x", Stable).Add(1)
	r.Gauge("y", Volatile).Set(2)

	t.Run("/debug/obs", func(t *testing.T) {
		w := &brokenWriter{}
		serveObs(w, r)
		if w.attempts == 0 {
			t.Fatal("no write attempted; the test exercised nothing")
		}
		if len(w.headerCalls) != 1 || w.headerCalls[0] != http.StatusOK {
			t.Fatalf("WriteHeader calls %v, want exactly the implicit 200", w.headerCalls)
		}
	})
}

// TestServeObsFullRecordIntact: buffering must not change what a
// healthy client receives.
func TestServeObsFullRecordIntact(t *testing.T) {
	r := New()
	r.Counter("hits", Stable).Add(7)
	rec := httptest.NewRecorder()
	serveObs(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"hits"`) {
		t.Fatalf("full record missing counter: %s", body[:min(len(body), 200)])
	}
	back, err := ReadRecord(strings.NewReader(body))
	if err != nil {
		t.Fatalf("record does not round trip: %v", err)
	}
	if len(back.Counters) == 0 || back.Counters[0].Name != "hits" {
		t.Fatalf("round-tripped record %+v", back)
	}
}
