package nn

import (
	"errors"
	"fmt"
)

// Layer invariants panic with typed errors instead of bare strings so the
// pipeline's recover boundary (ps.panicError unwraps the panic value) turns
// them into errors that wrap errShape or errUsage.
var (
	// errShape reports operands whose dimensions violate a layer's shape
	// contract (wrong input width, mismatched gradient, logits/labels length
	// skew).
	errShape = errors.New("nn: shape mismatch")

	// errUsage reports a layer protocol violation: Backward before Forward,
	// or constructing a layer from an invalid specification.
	errUsage = errors.New("nn: layer misuse")
)

// shapeErr builds an errShape-wrapped error for panicking shape checks.
func shapeErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errShape, fmt.Sprintf(format, args...))
}

// usageErr builds an errUsage-wrapped error for panicking protocol checks.
func usageErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}
