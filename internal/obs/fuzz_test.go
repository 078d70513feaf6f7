package obs

import (
	"bytes"
	"strings"
	"testing"
)

// Native fuzz targets for the two wire parsers (run with their seed corpus
// in normal `go test`; extend with e.g.
// `go test -fuzz=FuzzParseProm ./internal/obs`).

// FuzzParseSpanContext: any X-Uninet-Trace value the parser accepts renders
// back, through HeaderValue, to a header that parses to the same context.
func FuzzParseSpanContext(f *testing.F) {
	for _, s := range []string{
		"",
		"deadbeef",
		"0123456789abcdef0123456789abcdef",
		"0123456789ABCDEF0123456789abcdef",
		"00000000000000000000000000000000",
		"0123456789abcdef0123456789abcdef-0123456789abcdef",
		"0123456789abcdef0123456789abcdef-0000000000000000",
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
		"0123456789abcdef0123456789abcdef0",
		"0123456789abcdef0123456789abcdef_0123456789abcdef",
		"0123456789abcdef0123456789abcdef-0123456789abcdeZ",
		"0123456789abcdef0123456789abcdef-0123",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseSpanContext(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, sc)
			}
			return
		}
		h := sc.HeaderValue()
		back, ok := ParseSpanContext(h)
		if !ok || back != sc {
			t.Fatalf("%q parsed to %+v, whose header %q parses to %+v (ok=%v)", s, sc, h, back, ok)
		}
	})
}

// FuzzParseProm: the exposition parser returns an error for malformed
// input and never panics, whatever the bytes.
func FuzzParseProm(f *testing.F) {
	for _, s := range []string{
		"foo 1\n",
		"# TYPE 9bad counter\n9bad 1\n",
		"# TYPE foo counter\nfoo\n",
		"# TYPE foo counter\nfoo xyz\n",
		"# TYPE foo counter\nfoo{a=\"1\" 2\n",
		"# TYPE foo counter\n# TYPE foo gauge\n",
		"# TYPE h histogram\nh_bucket 1\nh_count 1\nh_sum 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 1\n",
		"# HELP h a histogram\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n# TYPE g gauge\ng{node=\"n1\"} 4\n",
	} {
		f.Add(s)
	}
	r := New()
	r.Counter(`service.stage_errors{endpoint="simulate",route="local"}`).Add(2)
	r.Counter(`weird.name-x{path="a\"b\\c"}`).Inc()
	r.Gauge("runtime.goroutines").Set(13)
	r.Histogram("h.us", []int64{1, 2}).Observe(1)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, s string) {
		ParseProm(strings.NewReader(s))
	})
}
