package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"poi360/internal/obs"
)

// stream is a complete P6T stream of n congestion episodes: n trigger and
// n release events.
func stream(n int) []byte {
	var enc obs.EventEncoder
	b := obs.AppendShardMarker(obs.AppendBinaryHeader(nil), 0)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Second
		b = enc.AppendEvent(b, &obs.Event{At: at, Kind: obs.FBCCTrigger, A: 19456, B: 11832.5, C: 10})
		b = enc.AppendEvent(b, &obs.Event{At: at + 300*time.Millisecond, Kind: obs.FBCCRelease, A: 0.24, B: 2.1e6})
	}
	return b
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

var errFull = errors.New("device full")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, errFull
}

func TestDecodeRendersJSONL(t *testing.T) {
	var out bytes.Buffer
	if err := decode(bytes.NewReader(stream(1)), &out, "events", false, 0, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"kind":"fbcc.trigger"`) || !strings.Contains(lines[1], `"kind":"fbcc.release"`) {
		t.Fatalf("decoded JSONL:\n%s", out.String())
	}
}

// TestDecodeReportsWriteError: a full disk or a closed pipe must not turn
// into a clean exit with truncated output, in any view, whether the writer
// gives out at the final flush (one episode) or mid-stream (500 episodes
// overflow the output buffer many times over).
func TestDecodeReportsWriteError(t *testing.T) {
	for _, view := range []string{"events", "registry", "episodes"} {
		for _, n := range []int{1, 500} {
			for _, room := range []int{0, 40} {
				err := decode(bytes.NewReader(stream(n)), &failWriter{n: room}, view, false, 0, 0)
				if !errors.Is(err, errFull) {
					t.Errorf("view %s, %d episodes, writer full after %d bytes: decode = %v, want the write error",
						view, n, room, err)
				}
			}
		}
	}
}
