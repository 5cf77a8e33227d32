package diff

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON writes the comparison with stable indentation and field
// order; the findings are already ranked, so the same pair of reports
// renders byte-identically on every run.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteText writes the human summary: identity line, the ranked
// findings, the determinism diagnosis, and a final verdict line.
// Output is deterministic for a given Result.
func (r *Result) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("trenv-diff: %s seed %d scale %g\n", r.Source, r.Seed, r.Scale)
	if len(r.Findings) > 0 {
		p("findings (%d):\n", len(r.Findings))
	}
	for _, f := range r.Findings {
		p("%s", fmt.Sprintf(" %-9s %-13s %s", f.Verdict, f.Kind, f.Key))
		if f.Base != 0 || f.New != 0 {
			p(": %.6g -> %.6g", f.Base, f.New)
			if f.DeltaPct != 0 {
				p(" (%+.1f%%)", f.DeltaPct)
			}
		}
		if f.Detail != "" {
			p(" -- %s", f.Detail)
		}
		p("\n")
	}
	if r.Determinism != nil {
		p("determinism: %s\n", r.Determinism.String())
	}
	if r.Regressed() {
		p("trenv-diff: REGRESSED (%d compared, %d unchanged, %d findings)\n",
			r.Compared, r.Unchanged, len(r.Findings))
	} else {
		p("trenv-diff: ok (%d compared, %d unchanged, %d findings)\n",
			r.Compared, r.Unchanged, len(r.Findings))
	}
	return err
}
