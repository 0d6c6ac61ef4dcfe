package replica

import (
	"bufio"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"mstadvice/internal/hier"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// FuzzServerFrame drives the server's request dispatcher with arbitrary
// frames against a service holding one small graph with tiers. The
// contract: the dispatcher never panics, every reply is non-empty and
// starts with rOK or rErr, and every rErr reply is exactly an error code
// plus a message the client's reply parser accepts.
func FuzzServerFrame(f *testing.F) {
	snap := makeSnapshot(f, 64, 192, 3)
	tiers, err := hier.BuildTiers(snap.Graph, snap.Root, hier.HierOptions{Levels: []int{1, 2}, Cap: snap.Cap})
	if err != nil {
		f.Fatal(err)
	}
	snap.Tiers = tiers
	svc := service.New()
	if err := svc.Register("g", snap); err != nil {
		f.Fatal(err)
	}
	srv := NewServer(svc, nil, ServerOptions{})

	advice := binary.AppendUvarint(appendString([]byte{opAdvice}, "g"), 5)
	tier := binary.AppendUvarint(appendString([]byte{opTier}, "g"), 1)
	info := appendString([]byte{opInfo}, "g")
	for _, frame := range [][]byte{advice, tier, info} {
		for cut := 0; cut <= len(frame); cut++ {
			f.Add(frame[:cut])
		}
	}
	f.Add(binary.AppendUvarint(appendString([]byte{opAdvice}, "g"), math.MaxUint64))
	f.Add(binary.AppendUvarint(appendString([]byte{opTier}, "g"), math.MaxUint64))
	f.Add(append([]byte{0xff}, info[1:]...))
	f.Add(appendString([]byte{opInfo}, strings.Repeat("x", maxWireString)))

	f.Fuzz(func(t *testing.T, frame []byte) {
		reply := srv.dispatch(frame)
		if len(reply) == 0 {
			t.Fatalf("empty reply to %x", frame)
		}
		switch reply[0] {
		case rOK:
		case rErr:
			c := &cursor{b: reply[1:]}
			if _, err := c.uvarint("error code"); err != nil {
				t.Fatalf("error reply %x to %x: %v", reply, frame, err)
			}
			if _, err := c.str("error message"); err != nil {
				t.Fatalf("error reply %x to %x: %v", reply, frame, err)
			}
			if len(c.rest()) != 0 {
				t.Fatalf("error reply %x to %x has %d trailing bytes", reply, frame, len(c.rest()))
			}
		default:
			t.Fatalf("reply %x to %x starts with status %d", reply, frame, reply[0])
		}
	})
}

// TestTailRejectsOutOfRangeIndex pins that a tail request whose index
// does not fit an int is refused with an error reply instead of wrapping
// to a negative log position.
func TestTailRejectsOutOfRangeIndex(t *testing.T) {
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(service.New(), log, ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(store.AppendRecord(nil, tailRequest(math.MaxUint64))); err != nil {
		t.Fatal(err)
	}
	reply, err := store.ReadRecord(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) == 0 || reply[0] != rErr {
		t.Fatalf("tail from index 2^64-1 answered %x, want an error reply", reply)
	}
}
