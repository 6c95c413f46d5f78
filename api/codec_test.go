package api

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pixel"
	"pixel/internal/resultjson"
)

// indentJSON is the body encoding/json writes for v with the servers'
// encoder setting.
func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// errText is an error's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecode decodes body through decodeBody and through
// encoding/json's stream decoder, as the client did before, and fails
// unless both give the same value (reflect.DeepEqual, which tells a nil
// map or slice from an empty one) and the same error text.
func checkDecode[T any](t *testing.T, body []byte) {
	t.Helper()
	var got, want T
	gotErr := decodeBody(bytes.NewReader(body), &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%.200q: %T error %q, encoding/json says %q", body, got, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q: decoded %#v, encoding/json gives %#v", body, got, want)
	}
}

// checkEncode fails unless the appender's output matches encoding/json's
// bytes for v, and the appender gives up exactly where encoding/json
// fails.
func checkEncode(t *testing.T, v any, got []byte, ok bool) {
	t.Helper()
	want, err := indentJSON(v)
	if ok != (err == nil) {
		t.Fatalf("%#v: appender ok=%v, encoding/json error %v", v, ok, err)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("appender wrote\n%s\nencoding/json writes\n%s", got, want)
	}
}

// plain reports whether s is written and read verbatim: printable ASCII
// that encoding/json escapes none of.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// FuzzResultCodec holds resultjson to encoding/json. From the value
// arguments it builds a result and a sweep response and requires the
// appenders to write encoding/json's exact bytes (or to give up where
// encoding/json fails); then it decodes those bytes, and the raw body
// argument, as both a sweep response and a result, and requires
// decodeBody to return encoding/json's value and error text. A body
// whose strings are all plain must take the parser, not the replay,
// and re-encode to its own bytes.
func FuzzResultCodec(f *testing.F) {
	sweep, result := sweepBody(f, 2, []int{4, 8}, []int{4, 8})
	f.Add(sweep, "AlexNet", "mul", uint8(1), 4, 8, 1e-3, 2e-5, 2e-8, 5e-4, uint8(0))
	f.Add(result, "LeNet", "laser", uint8(3), 16, 4, 5e-324, -0.0, 1e21, 1e-6, uint8(4))
	f.Fuzz(func(t *testing.T, body []byte, name, key string, design uint8, lanes, bits int, e, l, edp, b float64, shape uint8) {
		r := pixel.Result{
			Network: name, Design: pixel.Design(int(design)%5 - 1), Lanes: lanes, Bits: bits,
			EnergyJ: e, LatencyS: l, EDP: edp,
		}
		switch shape % 3 {
		case 1:
			r.Breakdown = pixel.Breakdown{Mul: e, Laser: l, OtoE: b}
		case 2:
			r.Breakdown = pixel.Breakdown{Act: b, Add: edp, Comm: l, Laser: e, Mul: -b, OtoE: edp}
		}
		switch {
		case shape&4 != 0:
			r.PerLayer = []LayerResult{{Name: key, EnergyJ: edp, LatencyS: b}, {Name: name, EnergyJ: e, LatencyS: l}}
		case shape&64 != 0:
			r.PerLayer = []LayerResult{}
		}
		resp := SweepResponse{Points: bits}
		if shape&8 == 0 {
			row := r
			row.PerLayer = nil
			resp.Results = map[string][]Result{name: {row, r}}
			switch shape >> 4 % 3 {
			case 1:
				resp.Results[key] = nil
			case 2:
				resp.Results[key] = []Result{}
			}
		}

		rb, ok := resultjson.AppendResult(nil, &r)
		checkEncode(t, r, rb, ok)
		sb, sok := resultjson.AppendSweep(nil, resp.Points, resp.Results)
		checkEncode(t, resp, sb, sok)

		for _, in := range [][]byte{body, rb, sb} {
			checkDecode[SweepResponse](t, in)
			checkDecode[Result](t, in)
		}
		if !ok || !plain(name) || !plain(key) || r.Design < pixel.EE || r.Design > pixel.OO {
			return
		}
		var gotR Result
		var gotS SweepResponse
		if !parseCanonical(rb, &gotR) || !parseCanonical(sb, &gotS) {
			t.Fatalf("canonical bodies left the parser:\n%s\n%s", rb, sb)
		}
		// Re-encoding what was parsed gives the same bytes, which
		// DeepEqual alone would not show for a float's sign of zero.
		rb2, _ := resultjson.AppendResult(nil, &gotR)
		sb2, _ := resultjson.AppendSweep(nil, gotS.Points, gotS.Results)
		if !bytes.Equal(rb2, rb) || !bytes.Equal(sb2, sb) {
			t.Fatalf("parsed bodies re-encode differently:\n%s\n%s", rb2, sb2)
		}
	})
}

// sweepBody prices the first n networks over every design and the
// given axes, as a worker's /v1/sweep does, and returns the body
// encoding/json writes for it and for its first row with per-layer
// results (an evaluate body).
func sweepBody(tb testing.TB, n int, lanes, bits []int) (sweep, result []byte) {
	tb.Helper()
	ctx := context.Background()
	nets := pixel.Networks()[:n]
	points := pixel.Grid(pixel.Designs(), lanes, bits)
	rows, err := pixel.SweepNetworks(ctx, nets, points, nil)
	if err != nil {
		tb.Fatal(err)
	}
	resp := SweepResponse{Points: len(points), Results: rows}
	if sweep, err = indentJSON(resp); err != nil {
		tb.Fatal(err)
	}
	r, err := pixel.EvaluateContext(ctx, nets[0], points[0])
	if err != nil {
		tb.Fatal(err)
	}
	if result, err = indentJSON(r); err != nil {
		tb.Fatal(err)
	}
	return sweep, result
}

// TestResultCodecCanonical: a priced 96-row sweep body and an evaluate
// body with per-layer results take the parser and come back as
// encoding/json decodes them, and the appenders rewrite them byte for
// byte.
func TestResultCodecCanonical(t *testing.T) {
	sweep, result := sweepBody(t, 2, []int{2, 4, 8, 16}, []int{2, 4, 6, 8})
	var resp SweepResponse
	var r Result
	if !parseCanonical(sweep, &resp) || !parseCanonical(result, &r) {
		t.Fatal("canonical bodies left the parser")
	}
	if n := len(resp.Results[pixel.Networks()[0]]); resp.Points != 48 || n != 48 {
		t.Fatalf("parsed %d points, %d rows; want 48, 48", resp.Points, n)
	}
	if len(r.PerLayer) == 0 {
		t.Fatal("evaluate body parsed without per-layer results")
	}
	checkDecode[SweepResponse](t, sweep)
	checkDecode[Result](t, result)
	if got, _ := resultjson.AppendSweep(nil, resp.Points, resp.Results); !bytes.Equal(got, sweep) {
		t.Fatalf("sweep body re-encodes as\n%s", got)
	}
	if got, _ := resultjson.AppendResult(nil, &r); !bytes.Equal(got, result) {
		t.Fatalf("evaluate body re-encodes as\n%s", got)
	}
}

// TestBreakdownOffCanonical: a breakdown that is null, empty, reordered,
// missing a key or carrying an extra one leaves the parser, in an
// evaluate body and in a sweep row, and decodes as encoding/json
// decodes it. The same breakdowns seed FuzzResultCodec (body-breakdown-*).
func TestBreakdownOffCanonical(t *testing.T) {
	for name, bd := range map[string]string{
		"canonical": `{"act": 1, "add": 2, "comm": 3, "laser": 4, "mul": 5, "o/e": 6}`,
		"null":      `null`,
		"empty":     `{}`,
		"reordered": `{"add": 2, "act": 1, "comm": 3, "laser": 4, "mul": 5, "o/e": 6}`,
		"missing":   `{"act": 1, "add": 2, "comm": 3, "laser": 4, "mul": 5}`,
		"extra":     `{"act": 1, "add": 2, "comm": 3, "laser": 4, "mul": 5, "o/e": 6, "dac": 7}`,
	} {
		result := `{"network": "LeNet", "design": "OO", "lanes": 4, "bits": 8, "energy_j": 21, ` +
			`"latency_s": 1, "edp_js": 21, "energy_breakdown_j": ` + bd + `}`
		sweep := `{"points": 1, "results": {"LeNet": [` + result + `]}}`
		var r Result
		var resp SweepResponse
		gotR, gotS := parseCanonical([]byte(result), &r), parseCanonical([]byte(sweep), &resp)
		if want := name == "canonical"; gotR != want || gotS != want {
			t.Errorf("%s breakdown: parsed evaluate %v, sweep %v; want %v", name, gotR, gotS, want)
		}
		checkDecode[Result](t, []byte(result))
		checkDecode[SweepResponse](t, []byte(sweep))
	}
}

// BenchmarkSweepCodec encodes and decodes a 96-row sweep body (two
// networks × 48 points) through resultjson and, for comparison,
// through encoding/json.
func BenchmarkSweepCodec(b *testing.B) {
	body, _ := sweepBody(b, 2, []int{2, 4, 8, 16}, []int{2, 4, 6, 8})
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		b.Fatal(err)
	}
	b.Run("encode/resultjson", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = resultjson.AppendSweep(buf[:0], resp.Points, resp.Results)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := indentJSON(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/resultjson", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out SweepResponse
			if err := decodeBody(bytes.NewReader(body), &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out SweepResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
