package ctlplane

import (
	"io"
	"net"
	"testing"
	"time"

	"cisp/internal/cities"
)

// TestServeDropsStalledHeader: a client that sends a request line and
// never finishes its header is disconnected once readHeaderTimeout passes,
// instead of holding a goroutine and a socket for good.
func TestServeDropsStalledHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header timeout: skipped with -short")
	}
	b := SyntheticBackbone(cities.USCenters()[:5], 2, 10, 40)
	d, err := New(Config{Backbone: b, Comms: GravityCommodities(b.Sites, 20)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := d.Serve("127.0.0.1:0", nil)
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /readyz HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 20*time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled header: read %d bytes, err %v; want the server to close the connection", n, err)
	}
}
