"""Frozen known answers for the handshake key derivation.

The hex values were produced by the original per-step re-keying
``p_hash`` and pin the derivation byte for byte, on both dispatch
paths, so any change to how the PRF drives HMAC must keep every
derived secret.
"""

import pytest

from repro.crypto import fastpath
from repro.protocols.ciphersuites import (
    RSA_WITH_3DES_SHA,
    RSA_WITH_AES_SHA,
    RSA_WITH_RC2_MD5,
)
from repro.protocols.kdf import derive_key_block, finished_verify_data, master_secret

PREMASTER = bytes(range(48))
CLIENT_RANDOM = bytes(range(100, 132))
SERVER_RANDOM = bytes(range(200, 232))
MASTER = (
    "dd57fb9837944e87f4e3af1abac4fdf67ef0dd746e867360"
    "d7d5bb72c666c62cf78d168754e4e312af6cee65eac2c7c1"
)
MAC_KEYS = (
    "5f35dc942cb1fabcf993ff0d92ce2486674cdbb3",
    "4bf29b99780364de812d4536d4f67fd76814b0b0",
)

# suite -> (client key, server key, client IV, server IV)
KEY_BLOCKS = {
    RSA_WITH_3DES_SHA: (
        "6bce03243b902d8ef7d82e31d412cfc8c3025378e90754f0",
        "f3ae7b578259be16559c0e9f989c54dc858091dcfca00072",
        "aaf96cf112e6158d",
        "d058e59b55239646",
    ),
    RSA_WITH_AES_SHA: (
        "6bce03243b902d8ef7d82e31d412cfc8",
        "c3025378e90754f0f3ae7b578259be16",
        "559c0e9f989c54dc858091dcfca00072",
        "aaf96cf112e6158dd058e59b55239646",
    ),
}


@pytest.fixture(params=["reference", "fast"])
def path(request):
    with fastpath.force(request.param == "fast"):
        yield request.param


def test_master_secret(path):
    assert master_secret(PREMASTER, CLIENT_RANDOM, SERVER_RANDOM).hex() == MASTER


@pytest.mark.parametrize("suite", list(KEY_BLOCKS), ids=lambda s: s.cipher)
def test_derive_key_block(path, suite):
    block = derive_key_block(bytes.fromhex(MASTER), CLIENT_RANDOM,
                             SERVER_RANDOM, suite)
    assert (block.client_mac_key.hex(), block.server_mac_key.hex()) == MAC_KEYS
    assert (block.client_cipher_key.hex(), block.server_cipher_key.hex(),
            block.client_iv.hex(), block.server_iv.hex()) == KEY_BLOCKS[suite]


def test_export_grade_keys(path):
    block = derive_key_block(bytes.fromhex(MASTER), CLIENT_RANDOM,
                             SERVER_RANDOM, RSA_WITH_RC2_MD5)
    assert block.client_cipher_key.hex() == "3f45e1ec2af6db1dbf3e0b5e7de294f0"
    assert block.server_cipher_key.hex() == "fe1d62b3ee7685d1c7c7ab2ac6e08e1c"


@pytest.mark.parametrize("label,expected", [
    (b"client finished", "ae3af2461ed27a5da1a3a4a7"),
    (b"server finished", "3a72c35465876ac1c8fb67bc"),
])
def test_finished_verify_data(path, label, expected):
    digest = bytes(range(20))
    assert finished_verify_data(bytes.fromhex(MASTER), digest, label).hex() == expected
