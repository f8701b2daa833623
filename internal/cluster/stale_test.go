package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDegrade: for any body that is one JSON object, the degraded form
// decodes (numbers as json.Number) to the same fields plus
// "degraded":true; any other body comes back unchanged.
func FuzzDegrade(f *testing.F) {
	for _, seed := range []string{
		`{"name":"x","exit_code":9007199254740993}`,
		`{"degraded":false,"a":{"b":[1e400,-0.5,"<&>"]}}`,
		` {} `, `null`, `[1,2]`, `"s"`, `{"a":1} {"b":2}`, `{}]`, `not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		got := degrade(body)
		if !bytes.Equal(body, orig) {
			t.Fatal("degrade modified its input")
		}
		trimmed := bytes.TrimLeft(body, " \t\r\n")
		if !json.Valid(body) || len(trimmed) == 0 || trimmed[0] != '{' {
			if !bytes.Equal(got, body) {
				t.Fatalf("non-object body %q changed to %q", body, got)
			}
			return
		}
		want := decodeNumbers(t, body)
		want["degraded"] = true
		if have := decodeNumbers(t, got); !reflect.DeepEqual(have, want) {
			t.Fatalf("degraded %q decodes to %v, want %v", got, have, want)
		}
	})
}

func decodeNumbers(t *testing.T, b []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("decode %q: %v", b, err)
	}
	return m
}
