package cmdtest

import (
	"reflect"
	"testing"
)

func TestInvocationsExpandAndCut(t *testing.T) {
	text := `go build -o /tmp/elrec-x ./cmd/elrec-x
# /tmp/elrec-x -commented
FLAGS="-a 1
       -b 2"
/tmp/elrec-x -c 3 $FLAGS \
  -e ${FLAGS} > out.txt &
for bad in "-f 0"; do rc=0; timeout -s INT 6 /tmp/dist-elrec-x ... $bad || rc=$?; done
go run ./cmd/elrec-x -g $FLAGS  # trailing comment
echo "elrec-x -h" | elrec-xy -i
FLAGS="-z"
elrec-x`
	want := []Invocation{
		{"f:5", []string{"-c", "3", "-a", "1", "-b", "2", "-e", "-a", "1", "-b", "2"}},
		{"f:7", []string{}},
		{"f:8", []string{"-g", "-a", "1", "-b", "2"}},
		{"f:11", []string{}},
	}
	if got := invocations("f", text, "elrec-x"); !reflect.DeepEqual(got, want) {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}
