package nn

import (
	"errors"
	"fmt"
)

// Layer invariants panic with typed errors instead of bare strings so the
// pipeline's recover boundary (ps.PanicError unwraps the panic value) turns
// them into errors callers can classify with errors.Is(err, nn.ErrShape).
var (
	// ErrShape reports operands whose dimensions violate a layer's shape
	// contract (wrong input width, mismatched gradient, logits/labels length
	// skew).
	ErrShape = errors.New("nn: shape mismatch")

	// ErrUsage reports a layer protocol violation: Backward before Forward,
	// or constructing a layer from an invalid specification.
	ErrUsage = errors.New("nn: layer misuse")
)

// shapeErr builds an ErrShape-wrapped error for panicking shape checks.
func shapeErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrShape, fmt.Sprintf(format, args...))
}

// usageErr builds an ErrUsage-wrapped error for panicking protocol checks.
func usageErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUsage, fmt.Sprintf(format, args...))
}
