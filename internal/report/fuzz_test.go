package report

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the bundle decoder trenv-diff
// loads files with. It must never panic, and any bundle it accepts must
// re-encode and decode again to the same canonical bundle.
func FuzzDecode(f *testing.F) {
	lean := New("fig17", 1, 0.1).SetFlag("policy", "trenv-cxl")
	lean.AddFigure("fig17", "P99 latency", []string{"JS 12ms", "PR 700ms"})
	lean.Metrics = []Metric{{Key: `trenv_errors_total{function="JS"}`, Name: "trenv_errors_total",
		Labels: map[string]string{"function": "JS"}, Value: 1, Counter: true}}
	var buf bytes.Buffer
	if err := lean.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema": "trenv-selfbench/v1", "seed": 1, "scale": 0.1, "aggregate": {"events_per_sec": 1}}`))
	f.Add(append(bytes.Clone(buf.Bytes()), `"x"`...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := got.WriteJSON(&once); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded bundle refused: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := again.WriteJSON(&twice); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip changed the bundle:\n%s\n---\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
