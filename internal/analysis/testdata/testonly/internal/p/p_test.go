package p

import "testing"

func TestP(t *testing.T) {
	Dead()
	Helper()
	new(T).DeadMethod()
}
