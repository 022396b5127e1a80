package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// pipePair returns a wrapped client conn over a real TCP loopback
// pair, with the raw server side for inspection.
func pipePair(t *testing.T, inj *Injector) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { raw.Close(); r.c.Close() })
	return inj.WrapConn(raw), r.c
}

func TestFaultDropDiscardsWrites(t *testing.T) {
	inj := NewInjector(1)
	inj.SetFault(Fault{Drop: 1})
	client, server := pipePair(t, inj)
	if n, err := client.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("dropped write returned (%d, %v), want (5, nil)", n, err)
	}
	server.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 8)
	if n, err := server.Read(buf); err == nil {
		t.Fatalf("read %d bytes through a total drop", n)
	}
	if st := inj.Stats(); st.Drops != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v, want 1 drop", st)
	}
	// Heal restores delivery on the same connection.
	inj.Heal()
	if _, err := client.Write([]byte("again")); err != nil {
		t.Fatal(err)
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(server, buf[:5]); err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
	if string(buf[:5]) != "again" {
		t.Fatalf("post-heal read %q", buf[:5])
	}
}

func TestFaultResetClosesConn(t *testing.T) {
	inj := NewInjector(2)
	inj.SetFault(Fault{Reset: 1})
	client, server := pipePair(t, inj)
	msg := bytes.Repeat([]byte("reset me"), 8)
	n, err := client.Write(msg)
	if err == nil {
		t.Fatal("reset write succeeded")
	}
	// Like a TCP write cut by an RST, the reset reports the half it
	// wrote, and exactly that half reaches the peer before EOF.
	if n != len(msg)/2 {
		t.Fatalf("reset write reported %d bytes, want the %d it wrote", n, len(msg)/2)
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(server)
	if err != nil || !bytes.Equal(got, msg[:n]) {
		t.Fatalf("peer read %q (%v), want %q then EOF", got, err, msg[:n])
	}
	// The connection is dead for good, even after heal.
	inj.Heal()
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("write on reset connection succeeded")
	}
	if st := inj.Stats(); st.Resets != 1 {
		t.Fatalf("stats %+v, want 1 reset", st)
	}
}

func TestFaultPartialWritePreservesStream(t *testing.T) {
	inj := NewInjector(3)
	inj.SetFault(Fault{Partial: 1})
	client, server := pipePair(t, inj)
	msg := bytes.Repeat([]byte("memento"), 100)
	go func() {
		client.Write(msg)
	}()
	got := make([]byte, len(msg))
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("segmented write corrupted the stream")
	}
	if st := inj.Stats(); st.Partials == 0 {
		t.Fatalf("stats %+v, want partials", st)
	}
}

func TestFaultOutboundPartitionBlackholes(t *testing.T) {
	inj := NewInjector(4)
	inj.Partition(false, true)
	client, server := pipePair(t, inj)
	if n, err := client.Write([]byte("void")); n != 4 || err != nil {
		t.Fatalf("blackholed write returned (%d, %v)", n, err)
	}
	server.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, err := server.Read(make([]byte, 8)); err == nil {
		t.Fatalf("read %d bytes through an outbound cut", n)
	}
	if st := inj.Stats(); st.Blackholed != 1 {
		t.Fatalf("stats %+v, want 1 blackholed", st)
	}
}

func TestFaultInboundPartitionStallsAndHeals(t *testing.T) {
	inj := NewInjector(5)
	client, server := pipePair(t, inj)
	inj.Partition(true, false)
	if _, err := server.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	buf := make([]byte, 4)
	go func() {
		_, err := io.ReadFull(client, buf)
		read <- err
	}()
	select {
	case err := <-read:
		t.Fatalf("read returned %v through an inbound cut", err)
	case <-time.After(100 * time.Millisecond):
	}
	// Heal delivers the buffered bytes.
	inj.Heal()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still stalled after heal")
	}
	if string(buf) != "late" {
		t.Fatalf("post-heal read %q", buf)
	}
}

func TestFaultInboundPartitionHonorsReadDeadline(t *testing.T) {
	inj := NewInjector(6)
	client, _ := pipePair(t, inj)
	inj.Partition(true, false)
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := client.Read(make([]byte, 4))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("partitioned read error %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire through the partition", elapsed)
	}
}

func TestFaultCloseUnblocksPartitionedRead(t *testing.T) {
	inj := NewInjector(7)
	client, _ := pipePair(t, inj)
	inj.Partition(true, false)
	read := make(chan error, 1)
	go func() {
		_, err := client.Read(make([]byte, 4))
		read <- err
	}()
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-read:
		if err == nil {
			t.Fatal("read succeeded on closed partitioned conn")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock the partitioned read")
	}
}

// TestFaultDeterministicSchedule pins the rng-seeded contract: two
// injectors with the same seed hand the same sequence of verdicts to
// a serial caller.
func TestFaultDeterministicSchedule(t *testing.T) {
	roll := func(seed uint64) []verdict {
		inj := NewInjector(seed)
		inj.SetFault(Fault{Drop: 0.3, Reset: 0.1, Partial: 0.2})
		out := make([]verdict, 64)
		for i := range out {
			out[i], _ = inj.writeFault()
		}
		return out
	}
	a, b := roll(42), roll(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := roll(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFaultListenerWrapsAccepted exercises WrapListener and concurrent
// fault rolls under -race.
func TestFaultListenerWrapsAccepted(t *testing.T) {
	inj := NewInjector(8)
	inj.SetFault(Fault{Drop: 0.5, Partial: 0.3, Delay: 0.2, DelayBound: time.Millisecond})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := inj.WrapListener(raw)
	defer ln.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.Write([]byte("probe"))
		}()
	}
	for i := 0; i < 4; i++ {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.(*conn); !ok {
			t.Fatalf("accepted conn is %T, not fault-wrapped", c)
		}
		c.Write(bytes.Repeat([]byte("y"), 128))
		c.Close()
	}
	wg.Wait()
	st := inj.Stats()
	if st.Drops+st.Partials+st.Delays+st.Delivered == 0 {
		t.Fatalf("no write verdicts recorded: %+v", st)
	}
}
