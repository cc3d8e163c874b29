// WebSocket transport: a minimal RFC 6455 implementation over the
// standard library, covering exactly what rapidvizd's streaming protocol
// needs — text/binary messages, ping/pong keepalive, the close handshake,
// and both endpoint roles (the server upgrades HTTP requests; the client
// side exists for the benchmark and the test suite). No extensions, no
// compression, no subprotocol negotiation.
package serve

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// wsGUID is the protocol-mandated key-accept constant (RFC 6455 §1.3).
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// WebSocket frame opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// wsMaxMessage bounds assembled message size: query requests and streamed
// events are small JSON documents, so anything near a megabyte is abuse.
const wsMaxMessage = 1 << 20

// errWSClosed reports a cleanly closed connection (close frame received or
// sent). Readers treat it like io.EOF.
var errWSClosed = errors.New("serve: websocket closed")

// WSConn is one WebSocket connection. Reads must come from a single
// goroutine; writes are internally serialized and may come from any.
type WSConn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // client endpoints mask their frames

	wmu    sync.Mutex
	closed bool
}

// UpgradeWS performs the server side of the RFC 6455 opening handshake,
// hijacking the HTTP connection. On failure it writes the appropriate
// error status and returns a non-nil error; on success the caller owns the
// returned connection and must Close it.
func UpgradeWS(w http.ResponseWriter, r *http.Request) (*WSConn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket handshake requires GET", http.StatusMethodNotAllowed)
		return nil, fmt.Errorf("serve: ws handshake: method %s", r.Method)
	}
	if !headerContainsToken(r.Header, "Connection", "upgrade") || !headerContainsToken(r.Header, "Upgrade", "websocket") {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, errors.New("serve: ws handshake: missing upgrade headers")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("serve: ws handshake: version %q", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("serve: ws handshake: missing key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket unsupported by this server", http.StatusInternalServerError)
		return nil, errors.New("serve: ws handshake: ResponseWriter cannot hijack")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("serve: ws hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAccept(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: ws handshake write: %w", err)
	}
	if err := rw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: ws handshake flush: %w", err)
	}
	return &WSConn{conn: conn, br: rw.Reader}, nil
}

// DialWS performs the client side of the handshake against a ws:// URL
// (the benchmark and tests; TLS is out of scope for the embedded server).
func DialWS(rawURL string, timeout time.Duration) (*WSConn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("serve: ws dial: %w", err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("serve: ws dial: unsupported scheme %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host += ":80"
	}
	conn, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(nonce)
	path := u.RequestURI()
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: ws dial: reading status: %w", err)
	}
	if !strings.Contains(status, " 101 ") {
		conn.Close()
		return nil, fmt.Errorf("serve: ws dial: handshake rejected: %s", strings.TrimSpace(status))
	}
	accept := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("serve: ws dial: reading headers: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if name, val, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(name), "Sec-WebSocket-Accept") {
			accept = strings.TrimSpace(val)
		}
	}
	if accept != wsAccept(key) {
		conn.Close()
		return nil, errors.New("serve: ws dial: bad Sec-WebSocket-Accept")
	}
	return &WSConn{conn: conn, br: br, client: true}, nil
}

// wsAccept derives the Sec-WebSocket-Accept token for a handshake key.
func wsAccept(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerContainsToken reports whether any instance of the header contains
// the (case-insensitive) token in its comma-separated list.
func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// ReadMessage returns the next complete text or binary message payload.
// Control frames are handled transparently: pings are answered, pongs
// dropped, and a close frame completes the closing handshake and returns
// errWSClosed. Fragmented messages are reassembled up to wsMaxMessage.
func (c *WSConn) ReadMessage() ([]byte, error) {
	var message []byte
	assembling := false
	for {
		fin, opcode, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch opcode {
		case opPing:
			if err := c.writeFrame(opPong, payload); err != nil {
				return nil, err
			}
		case opPong:
			// keepalive reply; nothing to do
		case opClose:
			c.wmu.Lock()
			if !c.closed {
				c.closed = true
				c.writeFrameLocked(opClose, payload)
			}
			c.wmu.Unlock()
			return nil, errWSClosed
		case opText, opBinary:
			if assembling {
				return nil, errors.New("serve: websocket: new message before prior finished")
			}
			message = append(message, payload...)
			if fin {
				return message, nil
			}
			assembling = true
		case opContinuation:
			if !assembling {
				return nil, errors.New("serve: websocket: continuation without start")
			}
			if len(message)+len(payload) > wsMaxMessage {
				return nil, errors.New("serve: websocket: message too large")
			}
			message = append(message, payload...)
			if fin {
				return message, nil
			}
		default:
			return nil, fmt.Errorf("serve: websocket: unknown opcode %#x", opcode)
		}
	}
}

// readFrame reads one frame, unmasking if needed.
func (c *WSConn) readFrame() (fin bool, opcode byte, payload []byte, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(c.br, hdr[:]); err != nil {
		return false, 0, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return false, 0, nil, errors.New("serve: websocket: reserved bits set (extensions unsupported)")
	}
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > wsMaxMessage {
		return false, 0, nil, errors.New("serve: websocket: frame too large")
	}
	var mask [4]byte
	if masked {
		if _, err = io.ReadFull(c.br, mask[:]); err != nil {
			return false, 0, nil, err
		}
	}
	payload = make([]byte, length)
	if _, err = io.ReadFull(c.br, payload); err != nil {
		return false, 0, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i%4]
		}
	}
	return fin, opcode, payload, nil
}

// WriteText sends one unfragmented text message.
func (c *WSConn) WriteText(payload []byte) error { return c.writeFrame(opText, payload) }

// WriteClose initiates (or completes) the closing handshake with a status
// code and reason, after which writes fail.
func (c *WSConn) WriteClose(code uint16, reason string) error {
	body := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(body, code)
	copy(body[2:], reason)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return errWSClosed
	}
	c.closed = true
	return c.writeFrameLocked(opClose, body)
}

// Close tears down the underlying connection.
func (c *WSConn) Close() error { return c.conn.Close() }

func (c *WSConn) writeFrame(opcode byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return errWSClosed
	}
	return c.writeFrameLocked(opcode, payload)
}

// writeFrameLocked writes one complete frame; callers hold wmu. Server
// frames go unmasked, client frames masked, per RFC 6455 §5.1.
func (c *WSConn) writeFrameLocked(opcode byte, payload []byte) error {
	hdr := make([]byte, 0, 14)
	hdr = append(hdr, 0x80|opcode)
	maskBit := byte(0)
	if c.client {
		maskBit = 0x80
	}
	switch n := len(payload); {
	case n < 126:
		hdr = append(hdr, maskBit|byte(n))
	case n <= 0xFFFF:
		hdr = append(hdr, maskBit|126, byte(n>>8), byte(n))
	default:
		hdr = append(hdr, maskBit|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(n))
		hdr = append(hdr, ext[:]...)
	}
	if c.client {
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return err
		}
		hdr = append(hdr, mask[:]...)
		masked := make([]byte, len(payload))
		for i, b := range payload {
			masked[i] = b ^ mask[i%4]
		}
		payload = masked
	}
	if _, err := c.conn.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := c.conn.Write(payload); err != nil {
			return err
		}
	}
	return nil
}
