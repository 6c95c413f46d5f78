package httpx

import (
	"errors"
	"strings"
	"testing"
)

// TestStrictDecoding: exactly one JSON value with known fields, with
// trailing whitespace allowed (json.Encoder output ends in a newline)
// and any other trailing data rejected, for bodies and job specs alike.
func TestStrictDecoding(t *testing.T) {
	type spec struct {
		Network string `json:"network"`
	}
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`{"network":"lenet"}`, true},
		{"{\"network\":\"lenet\"}\n \t\r\n", true},
		{`{"network":"lenet"} trailing-garbage`, false},
		{`{"network":"lenet"}{"network":"nope"}`, false},
		{`{"network":"lenet"} ]`, false},
		{`{"network":"lenet","extra":1}`, false},
		{`{"network":`, false},
		{``, false},
	} {
		var dst spec
		err := decodeStrict(strings.NewReader(tc.in), &dst)
		if (err == nil) != tc.ok {
			t.Errorf("decodeStrict(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		err = StrictUnmarshal([]byte(tc.in), &dst)
		var he *Error
		if tc.ok && err != nil {
			t.Errorf("StrictUnmarshal(%q) = %v, want nil", tc.in, err)
		} else if !tc.ok && (!errors.As(err, &he) || he.Status != 400 || he.Code != "bad_request") {
			t.Errorf("StrictUnmarshal(%q) = %v, want 400 bad_request", tc.in, err)
		}
	}
}
