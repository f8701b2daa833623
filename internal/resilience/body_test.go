package resilience

import (
	"errors"
	"strings"
	"testing"
)

// TestReadBounded: a body of exactly the bound reads whole; one byte
// more fails with the typed error and no partial body.
func TestReadBounded(t *testing.T) {
	b, err := ReadBounded(strings.NewReader("12345"), 5)
	if err != nil || string(b) != "12345" {
		t.Fatalf("at the bound: %q, %v", b, err)
	}
	b, err = ReadBounded(strings.NewReader("123456"), 5)
	var tooLarge *BodyTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Limit != 5 || b != nil {
		t.Fatalf("over the bound: %q, %v; want nil and *BodyTooLargeError{5}", b, err)
	}
}
