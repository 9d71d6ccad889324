package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// manualClock is a settable clock for driving elections deterministically.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// tempLease is a lease file of the test's own, on the real clock.
func tempLease(t testing.TB) *FileLease {
	return NewFileLease(filepath.Join(t.TempDir(), "cluster.lease"), nil)
}

func TestGrantable(t *testing.T) {
	base := time.Unix(1000, 0)
	cases := []struct {
		name string
		st   LeaseState
		node string
		now  time.Time
		want bool
	}{
		{"empty lease", LeaseState{}, "a", base, true},
		{"holder renews", LeaseState{Holder: "a", Expires: base.Add(time.Second)}, "a", base, true},
		{"other node, live lease", LeaseState{Holder: "a", Expires: base.Add(time.Second)}, "b", base, false},
		{"other node, at expiry", LeaseState{Holder: "a", Expires: base}, "b", base, true},
		{"other node, past expiry", LeaseState{Holder: "a", Expires: base}, "b", base.Add(time.Nanosecond), true},
		{"holder renews past expiry", LeaseState{Holder: "a", Expires: base}, "a", base.Add(time.Hour), true},
	}
	for _, c := range cases {
		if got := grantable(c.st, c.node, c.now); got != c.want {
			t.Errorf("%s: grantable = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCampaignStagger(t *testing.T) {
	const ttl = 4 * time.Second
	a := campaignStagger("node-a", ttl)
	if a != campaignStagger("node-a", ttl) {
		t.Fatal("stagger is not deterministic")
	}
	if a < 0 || a > ttl/4 {
		t.Fatalf("stagger %v outside [0, ttl/4]", a)
	}
	if campaignStagger("", 0) != 0 {
		t.Fatal("zero ttl must not stagger")
	}
	// Not a strict requirement (hash collisions exist), but these IDs are
	// pinned to land in different buckets — a regression here means the hash
	// no longer spreads campaigns at all.
	if campaignStagger("node-a", ttl) == campaignStagger("node-b", ttl) &&
		campaignStagger("node-a", ttl) == campaignStagger("node-c", ttl) {
		t.Fatal("stagger does not separate distinct node IDs")
	}
}

// TestLeaseElection drives a full election cycle through a lease file on an
// injected clock: grant, denial, renewal, expiry takeover, fencing of the old
// holder, and graceful release.
func TestLeaseElection(t *testing.T) {
	clk := &manualClock{t: time.Unix(5000, 0)}
	l := NewFileLease(filepath.Join(t.TempDir(), "cluster.lease"), clk.now)
	const ttl = time.Second

	st, won, err := l.Acquire("a", "addr-a", ttl)
	if err != nil || !won || st.Holder != "a" || st.Addr != "addr-a" {
		t.Fatalf("initial acquire: st=%+v won=%v err=%v", st, won, err)
	}
	if st, won, _ := l.Acquire("b", "addr-b", ttl); won || st.Holder != "a" {
		t.Fatalf("b acquired against a live lease: %+v", st)
	}

	clk.advance(ttl / 2)
	if _, won, _ := l.Acquire("a", "addr-a", ttl); !won {
		t.Fatal("holder renewal refused")
	}
	// The renewal extended the claim: b remains locked out at the original expiry.
	clk.advance(ttl/2 + 100*time.Millisecond)
	if _, won, _ := l.Acquire("b", "addr-b", ttl); won {
		t.Fatal("b acquired inside the renewed ttl")
	}

	clk.advance(ttl)
	st, won, _ = l.Acquire("b", "addr-b", ttl)
	if !won || st.Holder != "b" {
		t.Fatalf("b could not take the lapsed lease: %+v", st)
	}
	// The old holder is fenced now.
	if st, won, _ := l.Acquire("a", "addr-a", ttl); won || st.Holder != "b" {
		t.Fatalf("a re-acquired against b's live lease: %+v", st)
	}

	if err := l.Release("a"); err != nil { // non-holder release is a no-op
		t.Fatal(err)
	}
	if st, _ := l.State(); st.Holder != "b" {
		t.Fatalf("non-holder release cleared the lease: %+v", st)
	}
	if err := l.Release("b"); err != nil {
		t.Fatal(err)
	}
	if _, won, _ := l.Acquire("a", "addr-a", ttl); !won {
		t.Fatal("a could not acquire after graceful release")
	}

	if _, _, err := l.Acquire("", "x", ttl); err == nil {
		t.Fatal("empty node id accepted")
	}
}

// TestFileLease exercises the shared-file arbiter end to end, including the
// release → re-acquire cycle (a released lease file must stay parseable).
func TestFileLease(t *testing.T) {
	clk := &manualClock{t: time.Unix(9000, 0)}
	path := filepath.Join(t.TempDir(), "cluster.lease")
	l := NewFileLease(path, clk.now)
	const ttl = time.Second

	// Missing file is an empty, grantable lease.
	if st, err := l.State(); err != nil || st.Holder != "" {
		t.Fatalf("missing file: st=%+v err=%v", st, err)
	}
	if _, won, err := l.Acquire("a", "127.0.0.1:7001", ttl); err != nil || !won {
		t.Fatalf("acquire: won=%v err=%v", won, err)
	}
	// A second arbiter over the same path sees the claim.
	l2 := NewFileLease(path, clk.now)
	if st, won, _ := l2.Acquire("b", "127.0.0.1:7002", ttl); won || st.Holder != "a" {
		t.Fatalf("b acquired through a second arbiter: %+v", st)
	}

	// Graceful release, then re-acquire through the other arbiter: the
	// released file must parse as an empty lease, not as corruption.
	if err := l.Release("a"); err != nil {
		t.Fatal(err)
	}
	if st, err := l2.State(); err != nil || st.Holder != "" {
		t.Fatalf("released lease file unreadable: st=%+v err=%v", st, err)
	}
	if _, won, err := l2.Acquire("b", "127.0.0.1:7002", ttl); err != nil || !won {
		t.Fatalf("b could not acquire after release: won=%v err=%v", won, err)
	}

	// Expiry takeover with the shared clock.
	clk.advance(2 * ttl)
	if _, won, err := l.Acquire("a", "127.0.0.1:7001", ttl); err != nil || !won {
		t.Fatalf("a could not take the lapsed lease: won=%v err=%v", won, err)
	}

	// Framing bytes in identity fields never reach the file.
	if _, _, err := l.Acquire("evil\nnode", "x", ttl); err == nil {
		t.Fatal("newline in node id accepted")
	}
}

func TestFileLeaseMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.lease")
	if err := os.WriteFile(path, []byte("not a lease\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewFileLease(path, nil)
	if _, err := l.State(); err == nil {
		t.Fatal("malformed lease file read as valid state")
	}
	// Malformed is never silently treated as free: acquire must refuse too.
	if _, _, err := l.Acquire("a", "x", time.Second); err == nil {
		t.Fatal("acquired over a malformed lease file")
	}
}

func TestParseLease(t *testing.T) {
	exp := time.Unix(0, 1234567890)
	valid := EncodeLease(LeaseState{Holder: "n1", Addr: "127.0.0.1:7001", Expires: exp})
	st, err := ParseLease(valid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Holder != "n1" || st.Addr != "127.0.0.1:7001" || !st.Expires.Equal(exp) {
		t.Fatalf("round trip mismatch: %+v", st)
	}
	// Released lease round-trips as the zero state.
	st, err = ParseLease(EncodeLease(LeaseState{}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Holder != "" || st.Addr != "" || !st.Expires.IsZero() {
		t.Fatalf("released lease round trip: %+v", st)
	}

	bad := [][]byte{
		nil,
		[]byte(""),
		[]byte("dpsync-lease v2\nn\na\n1\n"),
		[]byte("dpsync-lease v1\nn\na\n"),       // missing expiry line
		[]byte("dpsync-lease v1\nn\na\nnope\n"), // non-numeric expiry
		[]byte("dpsync-lease v1\nn\na\n1\ntrailing\n"), // bytes after the lease
		[]byte("dpsync-lease v1\nn\r\na\n1\n"),         // CR in a field
		[]byte("dpsync-lease v1\n\naddr\n0\n"),         // released but residual addr
		[]byte("dpsync-lease v1\n\n\n7\n"),             // released but residual expiry
		append([]byte("dpsync-lease v1\n"), append(bytes.Repeat([]byte("x"), 300), []byte("\na\n1\n")...)...),
	}
	for i, b := range bad {
		if _, err := ParseLease(b); err == nil {
			t.Errorf("malformed input %d accepted: %q", i, b)
		}
	}
}

// FuzzLeaseFile pins the lease file codec: ParseLease never panics, and any
// accepted image re-encodes to an image that parses back to the same state —
// so a lease written by one node is never misread by another.
func FuzzLeaseFile(f *testing.F) {
	f.Add(EncodeLease(LeaseState{Holder: "node-a", Addr: "127.0.0.1:7001", Expires: time.Unix(0, 1700000000000000000)}))
	f.Add(EncodeLease(LeaseState{}))
	f.Add([]byte("dpsync-lease v1\nn1\naddr\n-5\n"))
	f.Add([]byte("dpsync-lease v1\nn1\naddr\n1\n\n\n"))
	f.Add([]byte("dpsync-lease v2\nn1\naddr\n1\n"))
	f.Add([]byte("dpsync-lease v1\nn\r1\naddr\n1\n"))
	f.Add([]byte("dpsync-lease v1\n\n\n0\n"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ParseLease(data)
		if err != nil {
			return
		}
		st2, err := ParseLease(EncodeLease(st))
		if err != nil {
			t.Fatalf("re-encoded accepted lease rejected: %v (state %+v)", err, st)
		}
		if st2.Holder != st.Holder || st2.Addr != st.Addr || !st2.Expires.Equal(st.Expires) {
			t.Fatalf("lease state changed across re-encode: %+v != %+v", st2, st)
		}
	})
}
