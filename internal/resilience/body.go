package resilience

import (
	"fmt"
	"io"
)

// BodyTooLargeError reports a body that held more than its read bound.
// ReadBounded returns it instead of a truncated body, so a bounded read
// never hands a cut-off answer to a caller that would take it as whole.
type BodyTooLargeError struct {
	Limit int64
}

func (e *BodyTooLargeError) Error() string {
	return fmt.Sprintf("body exceeds the %d-byte bound", e.Limit)
}

// ReadBounded reads r to EOF. A body of more than limit bytes fails
// with *BodyTooLargeError; it reads at most limit+1 bytes to tell.
func ReadBounded(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, &BodyTooLargeError{Limit: limit}
	}
	return b, nil
}
