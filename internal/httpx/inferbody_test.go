package httpx

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pixel"
	"pixel/api"
)

// errText is an error's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkInferBody decodes body through decodeInfer and decodeStrict and
// fails unless both give the same request (reflect.DeepEqual, which
// tells a nil slice from an empty one) and the same error text.
func checkInferBody(t *testing.T, body []byte) {
	t.Helper()
	var got, want api.InferRequest
	gotErr := decodeInfer(bytes.NewReader(body), &got)
	wantErr := decodeStrict(bytes.NewReader(body), &want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %q, decodeStrict says %q", body, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %#v, decodeStrict gives %#v", body, got, want)
	}
}

// inferBodySeeds are canonical infer bodies and the near misses around
// the edge of parseInfer's subset.
var inferBodySeeds = []string{
	`{"network":"lenet","images":[[0,1,2],[3,4,5]]}`,
	"{\n  \"network\" : \"lenet\" ,\n\t\"images\" : [ [ 0 , 1 ] ,\r\n [ 2 ] ]\n}\n",
	`  {"images":[[7]],"network":"tiny"}  `,
	`{}`,
	`{"network":"lenet"}`,
	`{"images":[]}`,
	`{"images":[[]]}`,
	`{"images":[[],[1]]}`,
	`{"network":"","images":[[-0,-1,9223372036854775807,-9223372036854775808]]}`,
	`{"Network":"lenet","images":[[1]]}`,
	`{"network":"lenet","IMAGES":[[1]]}`,
	`{"network":"a","network":"b"}`,
	`{"images":[[1]],"images":[[2,3]]}`,
	`{"network":"len\u0065t","images":[[1]]}`,
	`{"n\u0065twork":"lenet"}`,
	`{"network":"le\"net"}`,
	`{"network":"lénet","images":[[1]]}`,
	"{\"network\":\"le\x7fnet\"}",
	`{"network":"lenet","images":[[1.0]]}`,
	`{"network":"lenet","images":[[1e2]]}`,
	`{"network":"lenet","images":[[00]]}`,
	`{"network":"lenet","images":[[01]]}`,
	`{"network":"lenet","images":[[-]]}`,
	`{"network":"lenet","images":[[9223372036854775808]]}`,
	`{"network":"lenet","images":[[-9223372036854775809]]}`,
	`{"network":"lenet","images":[[18446744073709551616]]}`,
	`null`,
	`{"network":null,"images":[[1]]}`,
	`{"network":"lenet","images":null}`,
	`{"network":"lenet","images":[null]}`,
	`{"network":"lenet","images":[[null]]}`,
	`{"network":"lenet","images":[1]}`,
	`{"network":"lenet","image":[[1]]}`,
	`{"network":"lenet","images":[[1]]} x`,
	`{"network":"lenet","images":[[1]]}{}`,
	`{"network":"lenet","images":[[1,]]}`,
	`{"network":"lenet","images":[[1]],}`,
	`{"network":"lenet","images":[[1]]`,
	`{"network":"lenet","images":[[1`,
	`{"network":"le`,
	`{"net`,
	``,
	` `,
	`[]`,
}

// TestDecodeInferFastPath: the canonical seeds and a 64-image LeNet
// body parse without reflection (FuzzInferBody's seed run checks they
// decode as decodeStrict does), and the leading seeds are those.
func TestDecodeInferFastPath(t *testing.T) {
	for _, body := range append(inferBodySeeds[:9:9], string(lenetInferBody(t))) {
		var req api.InferRequest
		if !parseInfer([]byte(body), &req) {
			t.Errorf("%.80q: canonical body left the fast path", body)
		}
	}
	for _, body := range inferBodySeeds[9:] {
		var req api.InferRequest
		if parseInfer([]byte(body), &req) {
			t.Errorf("%q: non-canonical body took the fast path", body)
		}
	}
}

// FuzzInferBody: for any bytes, the infer decode returns exactly what
// decodeStrict returns — the same request and the same error text.
func FuzzInferBody(f *testing.F) {
	for _, body := range inferBodySeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkInferBody(t, body)
	})
}

// lenetInferBody is a 64-image LeNet /v1/infer body.
func lenetInferBody(tb testing.TB) []byte {
	tb.Helper()
	shape, err := pixel.InferNetworkShape("lenet")
	if err != nil {
		tb.Fatal(err)
	}
	req := api.InferRequest{Network: "lenet", Images: make([][]int64, 64)}
	for k := range req.Images {
		img := make([]int64, shape.H*shape.W*shape.C)
		for i := range img {
			img[i] = int64((i*7 + k*13) % int(shape.MaxValue+1))
		}
		req.Images[k] = img
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeInferBody decodes a 64-image LeNet body through the
// infer decode and, for comparison, through decodeStrict.
func BenchmarkDecodeInferBody(b *testing.B) {
	body := lenetInferBody(b)
	for _, tc := range []struct {
		name   string
		decode func(*api.InferRequest) error
	}{
		{"infer", func(req *api.InferRequest) error { return decodeInfer(bytes.NewReader(body), req) }},
		{"strict", func(req *api.InferRequest) error { return decodeStrict(bytes.NewReader(body), req) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req api.InferRequest
				if err := tc.decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeInferTooLarge: an infer body past the 1 MiB bound fails
// with the strict decoder's error text, as every other route's does.
func TestDecodeInferTooLarge(t *testing.T) {
	body := []byte(`{"network":"lenet","images":[[` + strings.Repeat("1,", 1<<19) + `1]]}`)
	decode := func(dst any) string {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		return errText(DecodeJSON(httptest.NewRecorder(), req, dst))
	}
	got := decode(new(api.InferRequest))
	want := decode(new(struct {
		Network string    `json:"network"`
		Images  [][]int64 `json:"images"`
	}))
	if got != want || !strings.Contains(got, "request body too large") {
		t.Fatalf("oversized infer body: %q, strict decoder: %q", got, want)
	}
}
