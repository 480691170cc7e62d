"""M-commerce over the WAP architecture — and the WAP gap.

The paper's §2 scenario: a handset speaks WTLS to a WAP gateway, which
translates to TLS toward the origin server.  This example runs a
purchase through the full three-party stack, then *shows* the gap (the
gateway's plaintext log), then closes it with application-layer
encryption, reproducing the paper's conclusion that bearer/transport
security "needs to be complemented through the use of security
mechanisms at higher protocol layers".

Run:  python examples/wap_m_commerce.py
"""

from repro.crypto.aes import AES
from repro.crypto.modes import CBC
from repro.protocols.gateway_runtime import build_gateway_runtime_world


def purchase(seed: int, handler, request: bytes):
    """One handset sends ``request`` through the gateway; returns the
    reply and the gateway's plaintext log."""
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=seed, handler=handler)
    handset = handsets["handset-00"]
    handset.send(request)
    runtime.submit("handset-00", "origin.example")
    runtime.run()
    return handset.receive(), runtime.plaintext_log


def main() -> None:
    print("== phase 1: plain WAP (WTLS to gateway, TLS to origin) ==")
    reply, plaintext_log = purchase(
        99, lambda request: b"CONFIRMED:" + request,
        b"BUY ringtone-42 CARD=4111111111111111")
    print(f"handset got: {reply.decode()}")

    print("gateway plaintext log (the WAP gap!):")
    for item in plaintext_log:
        print(f"  - {item.decode()}")

    print("\n== phase 2: application-layer security closes the gap ==")
    end_to_end_key = bytes(range(16))  # shared with the origin (SET-style)

    def seal(data: bytes) -> bytes:
        return CBC(AES(end_to_end_key), bytes(16)).encrypt(data)

    def open_(blob: bytes) -> bytes:
        return CBC(AES(end_to_end_key), bytes(16)).decrypt(blob)

    def secure_origin(request: bytes) -> bytes:
        return seal(b"CONFIRMED:" + open_(request))

    sealed_reply, plaintext_log = purchase(
        100, secure_origin, seal(b"BUY ringtone-42 CARD=4111111111111111"))
    print(f"handset got: {open_(sealed_reply).decode()}")

    leaked = any(b"4111111111111111" in item for item in plaintext_log)
    print(f"card number visible at gateway: {leaked}")
    assert not leaked


if __name__ == "__main__":
    main()
