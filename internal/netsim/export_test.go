package netsim

import "testing"

// PoisonReleased makes every release overwrite the buffer with 0xDB for
// the rest of the test, for the tests outside the package (they drive
// trafgen, tcpsim and experiments, which the package cannot import).
func PoisonReleased(t *testing.T) { poisoned(t) }
