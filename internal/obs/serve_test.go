package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	s := &Sink{Reg: NewRegistry(), Tr: NewTracer(1, nil)}
	s.Counter("cisp_test_total").Add(3)
	sp := s.Span("stage")
	sp.SetItems(2)
	sp.End()

	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	if code, body := get(t, srv, "/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "cisp_test_total 3") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get(t, srv, "/metrics.json"); code != 200 || !strings.Contains(body, `"cisp_test_total"`) {
		t.Errorf("/metrics.json = %d %q", code, body)
	}
	if code, body := get(t, srv, "/trace"); code != 200 || !strings.Contains(body, `"name":"stage"`) {
		t.Errorf("/trace = %d %q", code, body)
	}
	if code, body := get(t, srv, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d (len %d)", code, len(body))
	}
}

func TestServeListenAndClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", &Sink{Reg: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Error("server still answering after Close")
	}
}

// TestServeDropsStalledHeader: a scraper that sends a request line and
// never finishes its header is disconnected once readHeaderTimeout passes,
// instead of holding a goroutine and a socket for good.
func TestServeDropsStalledHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header timeout: skipped with -short")
	}
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 20*time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled header: read %d bytes, err %v; want the server to close the connection", n, err)
	}
}
