"""SET-style dual-signature payments (§2 application-layer security)."""

import pytest

from repro.crypto.rng import DeterministicDRBG
from repro.crypto.sha1 import sha1
from repro.protocols.payment import (
    DualSignedPayment,
    Merchant,
    OrderInfo,
    PaymentError,
    PaymentGateway,
    PaymentInfo,
    create_payment,
    non_repudiation_evidence,
)

CARD = "4111111111111111"


@pytest.fixture()
def cardholder(ca):
    return ca.issue("alice.cardholder", DeterministicDRBG("set-alice"))


@pytest.fixture()
def purchase(cardholder):
    key, cert = cardholder
    order = OrderInfo(merchant="shop.example", description="ringtone-42",
                      amount_cents=299, order_id="ORD-1")
    payment = PaymentInfo(card_number=CARD, expiry="12/05",
                          amount_cents=299, order_id="ORD-1")
    return create_payment(order, payment, key, cert)


class TestDualSignature:
    def test_merchant_accepts_and_identifies(self, ca, purchase):
        merchant = Merchant(name="shop.example", ca=ca)
        subject = merchant.process(purchase.merchant_view())
        assert subject == "alice.cardholder"
        assert merchant.fulfilled == ["ORD-1"]

    def test_gateway_authorises(self, ca, purchase):
        gateway = PaymentGateway(ca=ca)
        code = gateway.process(purchase.gateway_view())
        assert len(code) == 12
        assert gateway.authorised[0][0] == "ORD-1"

    def test_merchant_never_sees_card(self, purchase):
        order, payment_digest, signature, cert = purchase.merchant_view()
        blob = order.to_bytes() + payment_digest + signature + cert
        assert CARD.encode() not in blob

    def test_gateway_never_sees_order_description(self, purchase):
        payment, order_digest, signature, cert = purchase.gateway_view()
        blob = payment.to_bytes() + order_digest + signature + cert
        assert b"ringtone-42" not in blob

    def test_merchant_cannot_inflate_amount(self, ca, purchase):
        """Substituting a modified order breaks the dual signature."""
        inflated = OrderInfo(
            merchant="shop.example", description="ringtone-42",
            amount_cents=29_900, order_id="ORD-1")
        view = (inflated, purchase.payment_digest,
                purchase.dual_signature, purchase.cardholder_certificate)
        with pytest.raises(PaymentError, match="dual signature"):
            Merchant(name="shop.example", ca=ca).process(view)

    def test_payment_cannot_be_redirected(self, ca, cardholder, purchase):
        """Splicing this dual signature onto different payment info
        fails at the gateway."""
        other_payment = PaymentInfo(card_number="5500000000000004",
                                    expiry="12/05", amount_cents=299,
                                    order_id="ORD-1")
        view = (other_payment, purchase.order_digest,
                purchase.dual_signature, purchase.cardholder_certificate)
        with pytest.raises(PaymentError):
            PaymentGateway(ca=ca).process(view)

    def test_wrong_merchant_rejected(self, ca, purchase):
        with pytest.raises(PaymentError, match="addressed to"):
            Merchant(name="other.example", ca=ca).process(
                purchase.merchant_view())

    def test_mismatched_halves_rejected_at_creation(self, cardholder):
        key, cert = cardholder
        order = OrderInfo("m", "thing", 100, "A")
        payment = PaymentInfo(CARD, "12/05", 999, "A")
        with pytest.raises(PaymentError, match="amount"):
            create_payment(order, payment, key, cert)
        payment2 = PaymentInfo(CARD, "12/05", 100, "B")
        with pytest.raises(PaymentError, match="order id"):
            create_payment(order, payment2, key, cert)

    def test_non_repudiation_evidence(self, ca, purchase):
        evidence = non_repudiation_evidence(purchase, ca)
        assert evidence == {
            "cardholder": "alice.cardholder",
            "order_id": "ORD-1",
            "amount_cents": 299,
            "binding_holds": True,
        }

    def test_forged_evidence_detected(self, ca, purchase):
        forged = DualSignedPayment(
            order=OrderInfo("shop.example", "yacht", 10**9, "ORD-1"),
            payment_digest=purchase.payment_digest,
            payment=purchase.payment,
            order_digest=sha1(b"forged"),
            dual_signature=purchase.dual_signature,
            cardholder_certificate=purchase.cardholder_certificate,
        )
        assert not non_repudiation_evidence(forged, ca)["binding_holds"]

    def test_end_to_end_through_wap_gap(self, ca, cardholder):
        """The closing §2 argument: the dual-signed request traverses
        the WAP gateway without exposing the card number even in the
        gateway's plaintext log."""
        from repro.protocols.gateway_runtime import (
            build_gateway_runtime_world)

        key, cert = cardholder
        order = OrderInfo("origin.example", "song", 199, "ORD-9")
        payment = PaymentInfo(CARD, "12/05", 199, "ORD-9")
        purchase = create_payment(order, payment, key, cert)

        # Serialise only the merchant view through the gateway.
        order_wire, payment_digest, signature, cert_bytes = \
            purchase.merchant_view()
        request = (order_wire.to_bytes() + b"||" + payment_digest
                   + b"||" + signature)

        runtime, handsets, _ = build_gateway_runtime_world(
            sessions=1, seed=55, handler=lambda req: b"ACK:" + req[:20])
        handsets["handset-00"].send(request)
        runtime.submit("handset-00", "origin.example")
        runtime.run()
        assert handsets["handset-00"].receive() == b"ACK:" + request[:20]
        assert all(CARD.encode() not in item
                   for item in runtime.plaintext_log)
